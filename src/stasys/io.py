"""File formats: JSON complexes and profiles, CSV deformation reports.

Weights and all numeric report fields are serialized as exact fraction
strings ("3/4"), so every round trip is lossless.  ``category``, ``deform``
and ``csv`` are imported inside the functions that use them, so reading a
complex loads neither.
"""

from __future__ import annotations

import io as _io
import json
from fractions import Fraction

from .complexes import WeightedCellComplex, build_complex


def _require(value, kind: type, what: str):
    """Return value if it is a ``kind`` (dict or list), else raise ValueError."""
    if not isinstance(value, kind):
        json_name = "object" if kind is dict else "array"
        raise ValueError(f"{what} must be a JSON {json_name}, not {type(value).__name__}")
    return value


def _field(data: dict, key: str, where: str):
    """data[key]; a missing key is a ValueError naming the field and ``where``."""
    try:
        return data[key]
    except KeyError:
        raise ValueError(f"{where} is missing field {key!r}") from None


def _as_int(value, what: str) -> int:
    """A JSON integer or integral float: not a boolean, a string, 1.7, an infinity or NaN."""
    integral_float = isinstance(value, float) and value.is_integer()
    if integral_float or isinstance(value, int) and not isinstance(value, bool):
        return int(value)
    raise ValueError(f"{what} must be an integer, not {value!r}")


def _flag(data: dict, key: str, default, nullable: bool = False):
    """data[key], or default if absent; it must be a JSON boolean, or null when ``nullable``."""
    value = data.get(key, default)
    if isinstance(value, bool) or (nullable and value is None):
        return value
    allowed = "true, false or null" if nullable else "true or false"
    raise ValueError(f"{key} must be {allowed}, not {value!r}")


def _cell_id(value, what: str):
    if not isinstance(value, (str, int)):
        raise ValueError(f"{what} must be a string or an integer, not {type(value).__name__}")
    return value


def frac_str(x: Fraction) -> str:
    return str(Fraction(x))


def parse_frac(s: str) -> Fraction:
    try:
        return Fraction(str(s).strip())
    except ZeroDivisionError:
        raise ValueError(f"{s!r} has a zero denominator") from None


# ---------------------------------------------------------------------------
# Complexes
# ---------------------------------------------------------------------------

def complex_to_dict(K: WeightedCellComplex) -> dict:
    out = {"kind": K.kind, "top_dim": K.top_dim, "cells": {}}
    for q in range(K.top_dim + 1):
        entries = []
        for j, cid in enumerate(K.cell_ids[q]):
            entry = {
                "id": cid,
                "weight": frac_str(K.weights[q][j]),
                "boundary": [
                    [K.cell_ids[q - 1][face], inc] for face, inc in K.boundary_cols[q][j]
                ] if q else [],
            }
            if K.vertex_lists is not None:
                entry["vertices"] = list(K.vertex_lists[q][j])
            if K.factor_degrees is not None:
                entry["factor_degrees"] = list(K.factor_degrees[q][j])
            entries.append(entry)
        out["cells"][str(q)] = entries
    return out


def complex_from_dict(data: dict) -> WeightedCellComplex:
    _require(data, dict, "a complex")
    kind = _field(data, "kind", "complex JSON")
    if kind not in ("simplicial", "cubical", "general"):
        raise ValueError(f"kind must be simplicial, cubical or general, not {kind!r}")
    top = _as_int(_field(data, "top_dim", "complex JSON"), "top_dim")
    if top < 0:
        raise ValueError(f"top_dim must be at least 0, not {top}")
    cells_by_degree = _require(_field(data, "cells", "complex JSON"), dict, "cells")
    cells = []
    tags = []
    has_tags = True
    for q in range(top + 1):
        specs = []
        qtags = []
        degree_cells = _field(cells_by_degree, str(q), 'complex JSON "cells"')
        for entry in _require(degree_cells, list, f'cells["{q}"]'):
            _require(entry, dict, f"a cell of degree {q}")
            cid = _cell_id(_field(entry, "id", f"a degree-{q} cell in complex JSON"), "a cell id")
            boundary = []
            for pair in _require(entry.get("boundary", []), list, f"boundary of {cid}"):
                if not isinstance(pair, list) or len(pair) != 2:
                    raise ValueError(f"boundary of {cid} must list [face id, incidence] pairs")
                boundary.append((_cell_id(pair[0], "a face id"), _as_int(pair[1], "an incidence")))
            vertices = entry.get("vertices")
            if vertices is not None:
                vertices = tuple(_as_int(v, "a vertex")
                                 for v in _require(vertices, list, f"vertices of {cid}"))
            weight = parse_frac(_field(entry, "weight", f"complex JSON cell {cid!r}"))
            specs.append((cid, weight, boundary, vertices))
            tag = entry.get("factor_degrees")
            if tag is None:
                has_tags = False
            else:
                if not isinstance(tag, list) or len(tag) != 2:
                    raise ValueError(f"factor_degrees of {cid} must be a pair of degrees")
                qtags.append((_as_int(tag[0], "a factor degree"), _as_int(tag[1], "a factor degree")))
        cells.append(specs)
        tags.append(qtags)
    if extra := [key for key in cells_by_degree if key not in {str(q) for q in range(top + 1)}]:
        raise ValueError(f"cells has degree {extra[0]!r} outside 0..{top}")
    return build_complex(kind, cells, factor_degrees=tags if has_tags else None)


def save_complex(K: WeightedCellComplex, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(complex_to_dict(K), fh, indent=1)


def load_complex(path: str) -> WeightedCellComplex:
    with open(path) as fh:
        return complex_from_dict(json.load(fh))


# ---------------------------------------------------------------------------
# Profiles
# ---------------------------------------------------------------------------

def profile_to_dict(p: DimensionProfile) -> dict:
    out = {
        "name": p.name,
        "dimension": p.n,
        "betti": list(p.betti),
        "orientable": p.orientable,
        "max_cup_length": p.max_cup_flag,
        "homology_sphere": p.homology_sphere,
    }
    if p.factors:
        out["factors"] = [profile_to_dict(f) for f in p.factors]
    return out


def profile_from_dict(data: dict) -> DimensionProfile:
    from .category import DimensionProfile, product_profile

    _require(data, dict, "a profile")
    factors = tuple(profile_from_dict(f) for f in _require(data.get("factors", []), list, "factors"))
    if "betti" not in data and factors:
        return product_profile(list(factors))
    n = _as_int(_field(data, "dimension", "profile JSON"), "dimension")
    if n < 0:
        raise ValueError(f"dimension must be at least 0, not {n}")
    return DimensionProfile(
        n=n,
        betti=tuple(_as_int(b, "a Betti number")
                    for b in _require(_field(data, "betti", "profile JSON"), list, "betti")),
        orientable=_flag(data, "orientable", True),
        max_cup_flag=_flag(data, "max_cup_length", None, nullable=True),
        homology_sphere=_flag(data, "homology_sphere", False),
        factors=factors,
        name=data.get("name", ""),
    )


def save_profile(p: DimensionProfile, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(profile_to_dict(p), fh, indent=1)


def load_profile(path: str) -> DimensionProfile:
    with open(path) as fh:
        return profile_from_dict(json.load(fh))


# ---------------------------------------------------------------------------
# Deformation reports as CSV
# ---------------------------------------------------------------------------

def report_to_csv(report: DeformationReport) -> str:
    import csv

    buf = _io.StringIO()
    writer = csv.writer(buf)
    parts = report.partition.parts
    header = ["t"] + [f"systole_q{p}_part{i}" for i, p in enumerate(parts)]
    header += ["product", "volume", "ratio"]
    writer.writerow(header)
    for s in report.samples:
        row = [frac_str(s.t)] + [frac_str(v) for v in s.part_systoles]
        row += [frac_str(s.product), frac_str(s.volume), frac_str(s.ratio)]
        writer.writerow(row)
    return buf.getvalue()


def csv_to_samples(text: str) -> list[SweepSample]:
    import csv

    from .deform import SweepSample

    reader = csv.reader(_io.StringIO(text))
    header = next(reader)
    nparts = len(header) - 4
    samples = []
    for row in reader:
        if not row:
            continue
        samples.append(SweepSample(
            t=parse_frac(row[0]),
            part_systoles=tuple(parse_frac(x) for x in row[1:1 + nparts]),
            product=parse_frac(row[1 + nparts]),
            volume=parse_frac(row[2 + nparts]),
            ratio=parse_frac(row[3 + nparts]),
        ))
    return samples
