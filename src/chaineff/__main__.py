"""``python -m chaineff``: the ``chaineff`` command."""
from .cli import main

main()
