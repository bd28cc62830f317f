"""Run the command-line interface: ``python -m dualselmer``."""
from .cli import entry

if __name__ == "__main__":
    entry()
