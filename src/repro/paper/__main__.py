"""``python -m repro.paper``: regenerate the paper's evaluation record."""

from repro.paper.reproduce import main

if __name__ == "__main__":
    main()
