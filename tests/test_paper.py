"""The paper ledger: which of the paper's values the library proves from cells.

The paper's theorem gives catstsys of a product of real homology spheres as
its real cup-length.  Each row is a cell-wise product built from the
library's constructors, the product expression that names the same space,
and the paper's value.  The bounds that `catstsys_bounds` derives from the
complex itself must hold that value, and the row is `closed from cells`
when they meet at it and `open` otherwise.  The product expression reaches
the value through the profile rules, which restate the theorem, so it is
exact on every row.  A change that closes a row records it here.
"""

import pytest

from stasys import (
    catstsys_bounds,
    circle,
    parse_product_expression,
    product_complex,
    profile_from_complex,
    sphere,
)

LEDGER = [
    # row, cell-wise product, product expression, the paper's value, status
    ("C3xS2", lambda: product_complex(circle(3), sphere(2)), "S1 x S2", 2, "open"),
    ("C3xS3", lambda: product_complex(circle(3), sphere(3)), "S1 x S3", 2, "open"),
    ("S2xS3", lambda: product_complex(sphere(2), sphere(3)), "S2 x S3", 2, "open"),
    ("S2xS2", lambda: product_complex(sphere(2), sphere(2)), "S2 x S2", 2, "open"),
    ("C3xC4", lambda: product_complex(circle(3), circle(4)), "S1 x S1", 2, "open"),
    ("C3xS2xC3", lambda: product_complex(product_complex(circle(3), sphere(2)), circle(3)),
     "S1 x S2 x S1", 3, "open"),
]


@pytest.mark.parametrize("build, expression, value, status", [row[1:] for row in LEDGER],
                         ids=[row[0] for row in LEDGER])
def test_the_ledger_row_holds(build, expression, value, status):
    from_cells = catstsys_bounds(profile_from_complex(build()))
    assert from_cells.lower <= value <= from_cells.upper
    assert ("closed from cells" if from_cells.lower == from_cells.upper else "open") == status
    from_expression = catstsys_bounds(parse_product_expression(expression))
    assert (from_expression.lower, from_expression.upper) == (value, value)
