"""Entry point for ``python -m addcomp``."""
from .cli import main

raise SystemExit(main())
