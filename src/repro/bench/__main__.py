"""``python -m repro.bench``: regenerate the paper's evaluation record."""

from repro.bench.reproduce import main

if __name__ == "__main__":
    main()
