"""File formats: JSON complexes and profiles, CSV deformation reports.

Weights and all numeric report fields are serialized as exact fraction
strings ("3/4"), so every round trip is lossless.  ``complexes``,
``category``, ``deform`` and ``csv`` are imported inside the functions that
use them, so reading a complex loads no ``category`` and reading a profile
no ``complexes``.
"""

from __future__ import annotations

import io as _io
import json
import re
from fractions import Fraction


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


def _flag(value, what: str, nullable: bool = False):
    """A JSON boolean, or null when ``nullable``."""
    if isinstance(value, bool) or (nullable and value is None):
        return value
    allowed = "true, false or null" if nullable else "true or false"
    raise ValueError(f"{what} must be {allowed}, not {value!r}")


def _cell_id(value, what: str):
    if not isinstance(value, (str, int)):
        raise ValueError(f"{what} must be a string or an integer, not {type(value).__name__}")
    return value


def frac_str(x: Fraction) -> str:
    return str(Fraction(x))


# Fraction builds 10**e exactly for a decimal exponent e, so "1e99999999"
# would take minutes.  int() reads at most 4300 digits from a string by
# default, so this bound lets an exponent reach no number whose digits
# could not also be written out.
MAX_EXPONENT = 4300
_EXPONENT = re.compile(r"e[-+]?([\d_]+)\Z", re.IGNORECASE)


def parse_frac(s: str) -> Fraction:
    text = str(s).strip()
    exponent = _EXPONENT.search(text)
    if exponent:
        digits = exponent[1].replace("_", "").lstrip("0")
        if len(digits) > len(str(MAX_EXPONENT)) or int(digits or 0) > MAX_EXPONENT:
            raise ValueError(f"{s!r} has a decimal exponent beyond ±{MAX_EXPONENT}")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"{s!r} has a zero denominator") from None


# ---------------------------------------------------------------------------
# Complexes
# ---------------------------------------------------------------------------

def complex_to_dict(K: WeightedCellComplex) -> dict:
    cells = {}
    for q, ids in enumerate(K.cell_ids):
        faces = K.cell_ids[q - 1] if q else ()
        entries = [{"id": cid, "weight": str(w), "boundary": [[faces[f], inc] for f, inc in col]}
                   for cid, w, col in zip(ids, K.weights[q], K.boundary_cols[q])]
        for key, table in (("vertices", K.vertex_lists), ("factor_degrees", K.factor_degrees)):
            if table is not None:
                for entry, value in zip(entries, table[q]):
                    entry[key] = list(value)
        cells[str(q)] = entries
    return {"kind": K.kind, "top_dim": K.top_dim, "cells": cells}


def complex_from_dict(data: dict) -> WeightedCellComplex:
    from .complexes import build_complex

    _require(data, dict, "a complex")
    kind = _field(data, "kind", "complex JSON")
    if kind not in ("simplicial", "cubical", "general"):
        raise ValueError(f"kind must be simplicial, cubical or general, not {kind!r}")
    top = _as_int(_field(data, "top_dim", "complex JSON"), "top_dim")
    if top < 0:
        raise ValueError(f"top_dim must be at least 0, not {top}")
    cells_by_degree = _require(_field(data, "cells", "complex JSON"), dict, "cells")
    cells = []
    for q in range(top + 1):
        specs = []
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
            tag = entry.get("factor_degrees")
            if tag is not None:
                if not isinstance(tag, list) or len(tag) != 2:
                    raise ValueError(f"factor_degrees of {cid} must be a pair of degrees")
                tag = (_as_int(tag[0], "a factor degree"), _as_int(tag[1], "a factor degree"))
            specs.append((cid, weight, boundary, vertices, tag))
        cells.append(specs)
    if extra := [key for key in cells_by_degree if key not in {str(q) for q in range(top + 1)}]:
        raise ValueError(f"cells has degree {extra[0]!r} outside 0..{top}")
    return build_complex(kind, cells)


def save_complex(K: WeightedCellComplex, path: str) -> None:
    """Write ``complex_to_dict(K)`` as JSON text built by ``json.dumps``, in one write:
    a header line with ``kind`` and ``top_dim``, one line opening each degree of
    ``cells``, one line per cell and a closing line.  A cell has ``id``, ``weight``
    as an exact fraction string, ``boundary`` as [face id, incidence] pairs, and
    ``vertices`` and ``factor_degrees`` when the complex has them.  `load_complex`
    reads any JSON layout."""
    data = complex_to_dict(K)
    lines = [f'{{"kind": {json.dumps(K.kind)}, "top_dim": {K.top_dim}, "cells": {{']
    for q, cells in data["cells"].items():
        lines.append(f'{"], " if q != "0" else ""}"{q}": [')
        if cells:
            lines.append(",\n".join(map(json.dumps, cells)))
    lines.append("]}}\n")
    with open(path, "w") as fh:
        fh.write("\n".join(lines))


def load_json(path: str):
    """The JSON value in a file; nesting too deep to parse is a ValueError."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise ValueError(f"{path} nests JSON too deeply to read") from None


def load_complex(path: str) -> WeightedCellComplex:
    return complex_from_dict(load_json(path))


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


# Readers of the fields that the factors (all four) or the Betti numbers (the flags) determine.
_DERIVED_FIELDS = {
    "dimension": lambda v: _as_int(v, "dimension"),
    "betti": lambda v: tuple(_as_int(b, "a Betti number") for b in _require(v, list, "betti")),
    "orientable": lambda v: _flag(v, "orientable"),
    "homology_sphere": lambda v: _flag(v, "homology_sphere"),
}


def profile_from_dict(data: dict) -> DimensionProfile:
    """A profile; one with ``factors`` is their product.

    ``orientable``, ``homology_sphere`` and a real homology sphere's ring
    flag are read off the Betti numbers, and a product's ``dimension``,
    ``betti`` and ring flag off its factors.  A value given beside them must
    agree, except that ``max_cup_length`` may fill a ring flag left null.
    """
    try:
        return _profile_from_dict(data)
    except RecursionError:  # the reader recurses once per level of "factors"
        raise ValueError("profile nests factors too deeply to read") from None


def _profile_from_dict(data: dict) -> DimensionProfile:
    from .category import DimensionProfile, product_profile

    _require(data, dict, "a profile")
    name = data.get("name", "")
    if not isinstance(name, str):
        raise ValueError(f"name must be a JSON string, not {name!r}")
    given = {key: read(data[key]) for key, read in _DERIVED_FIELDS.items() if key in data}
    flag = _flag(data.get("max_cup_length"), "max_cup_length", nullable=True)
    factors = [_profile_from_dict(f) for f in _require(data.get("factors", []), list, "factors")]
    if factors:
        p = product_profile(factors)
    else:
        p = DimensionProfile(n=_field(given, "dimension", "profile JSON"),
                             betti=_field(given, "betti", "profile JSON"))
    if p.max_cup_flag is not None and flag is not None:
        given["max_cup_length"] = flag
    derived = {"dimension": p.n, "betti": p.betti, "orientable": p.orientable,
               "homology_sphere": p.homology_sphere, "max_cup_length": p.max_cup_flag}
    for key, value in given.items():
        if value != derived[key]:
            source = "the factors" if factors else "the Betti numbers"
            raise ValueError(f"{key} {json.dumps(data[key])} disagrees with "
                             f"{json.dumps(derived[key])} derived from {source}")
    return DimensionProfile(n=p.n, betti=p.betti, factors=p.factors, name=name or p.name,
                            max_cup_flag=flag if p.max_cup_flag is None else p.max_cup_flag)


def save_profile(p: DimensionProfile, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(profile_to_dict(p), fh, indent=1)


def load_profile(path: str) -> DimensionProfile:
    return profile_from_dict(load_json(path))


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
    """Samples of a report written by ``report_to_csv``; ValueError on anything else."""
    import csv

    from .deform import SweepSample

    try:
        rows = list(csv.reader(_io.StringIO(text)))
    except csv.Error as exc:
        raise ValueError(f"malformed CSV: {exc}") from None
    header = rows[0] if rows else []
    if len(header) < 4 or header[0] != "t" or header[-3:] != ["product", "volume", "ratio"]:
        raise ValueError(f"CSV header must be t, the part columns, product, volume, ratio; "
                         f"got {header}")
    nparts = len(header) - 4
    samples = []
    for row in rows[1:]:
        if not row:
            continue
        if len(row) != len(header):
            raise ValueError(f"CSV row has {len(row)} fields, the header {len(header)}")
        samples.append(SweepSample(
            t=parse_frac(row[0]),
            part_systoles=tuple(parse_frac(x) for x in row[1:1 + nparts]),
            product=parse_frac(row[1 + nparts]),
            volume=parse_frac(row[2 + nparts]),
            ratio=parse_frac(row[3 + nparts]),
        ))
    return samples
