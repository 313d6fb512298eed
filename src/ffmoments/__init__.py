"""ffmoments: exact desk-scale verification of moment and character-sum
bounds for Dirichlet L-functions over F_q[T].

The package builds the family objects exactly (polynomials over a prime
field, unit groups with discrete-log tables, characters, L-polynomials) and
checks the stated identities and inequalities empirically: exact identities
at fixed tolerances, bounded-remainder estimates as recorded regression
constants.
"""

__version__ = "0.1.0"

# the kernels are numpy throughout; the name stays for tools that record it
BACKEND = "python"

__all__ = ["BACKEND", "__version__"]
