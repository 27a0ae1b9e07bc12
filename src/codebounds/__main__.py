"""`python -m codebounds`: the same command line as the `codebounds` script."""

from .cli import entry

if __name__ == "__main__":
    entry()
