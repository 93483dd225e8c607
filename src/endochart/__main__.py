"""`python -m endochart`: the command-line driver of `endochart.cli`."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
