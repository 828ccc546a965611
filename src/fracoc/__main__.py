"""``python -m fracoc solve|converge|noether ...`` runs the command-line harness."""

from .cli import entry

if __name__ == "__main__":
    entry()
