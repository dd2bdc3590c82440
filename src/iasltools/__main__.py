"""`python -m iasltools`: the same command line as the iasltools script."""

from .cli import console_main

if __name__ == "__main__":
    console_main()
