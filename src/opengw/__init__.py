"""opengw: exact-arithmetic engine for open Gromov-Witten / Welschinger
style disk counts over declared combinatorial targets.

Subpackages by concern:

- ring, linalg: coefficient rings and exact matrix arithmetic
- orientation: sign calculus for oriented sequences and fiber products
- lattice: degree lattice, constraint tuples, degeneration enumeration
- multidisk: disk configurations, linking numbers, spanning-tree sums
- bounding_chain: the boundary recursion and both invariant definitions
- wdvv: open WDVV residuals, recursion solver, structural checks
- fileio, cli: declarative input files and the batch front-end
"""

__version__ = "0.1.0"


class OpenGWError(Exception):
    """Base of every error class the package defines; the batch front-end
    turns it into a one-line message and exit status 2."""
