"""Entry point for `python -m barjanet`; the same command line as `barjanet`."""

from .cli import console_main

if __name__ == "__main__":
    console_main()
