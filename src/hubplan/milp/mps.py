"""Free-format MPS writer.

The writer emits ROWS/COLUMNS/RHS/RANGES/BOUNDS with the objective as free
row COST, integer columns inside INTORG/INTEND markers, binary columns as
BV bounds, and every value as its shortest exact decimal (repr), so a
reader recovers the model coefficient for coefficient. Columns with no
entries anywhere are pinned into COLUMNS with an explicit zero objective
entry so their existence and integrality survive the trip. A name that MPS
cannot carry, or a non-finite value, raises MpsFormatError.
"""

import numpy as np

from ..errors import MpsFormatError
from ..model import BINARY, CONT, EQ, GE, LE

_SENSE_CHAR = {LE: "L", GE: "G", EQ: "E"}
_OBJ_ROW = "COST"


def _check_name(name, what):
    if not name or len(name) > 255 or any(ch.isspace() for ch in name):
        raise MpsFormatError(f"illegal {what} name {name!r}")
    if name == _OBJ_ROW and what == "row":
        raise MpsFormatError(f"row name {_OBJ_ROW!r} collides with the "
                             "objective row")


def _num(v):
    v = float(v)
    if not np.isfinite(v):
        raise MpsFormatError(f"non-finite value {v!r} has no MPS encoding")
    return repr(v)


def write_mps(model) -> str:
    """Render model as free-format MPS text."""
    for r in model.row_names:
        _check_name(r, "row")
    for cname in model.col_names:
        _check_name(cname, "column")

    lines = ["NAME          HUBPLAN", "ROWS", f" N  {_OBJ_ROW}"]
    for i, rname in enumerate(model.row_names):
        lines.append(f" {_SENSE_CHAR[int(model.row_sense[i])]}  {rname}")

    lines.append("COLUMNS")
    a_csc = model.a_matrix.tocsc()
    in_int = False
    marker_no = 0
    for j, cname in enumerate(model.col_names):
        want_int = model.col_kind[j] != CONT
        if want_int != in_int:
            tag = "INTORG" if want_int else "INTEND"
            lines.append(f"    MARKER{marker_no}  'MARKER'  '{tag}'")
            marker_no += 1
            in_int = want_int
        st, en = a_csc.indptr[j], a_csc.indptr[j + 1]
        wrote = False
        if model.obj[j] != 0.0:
            lines.append(f"    {cname}  {_OBJ_ROW}  {_num(model.obj[j])}")
            wrote = True
        for k in range(st, en):
            rname = model.row_names[int(a_csc.indices[k])]
            lines.append(f"    {cname}  {rname}  {_num(a_csc.data[k])}")
            wrote = True
        if not wrote:
            lines.append(f"    {cname}  {_OBJ_ROW}  {_num(0.0)}")
    if in_int:
        lines.append(f"    MARKER{marker_no}  'MARKER'  'INTEND'")

    lines.append("RHS")
    for i, rname in enumerate(model.row_names):
        if model.rhs[i] != 0.0:
            lines.append(f"    RHS  {rname}  {_num(model.rhs[i])}")

    lines.append("RANGES")

    lines.append("BOUNDS")
    for j, cname in enumerate(model.col_names):
        lo = float(model.col_lb[j])
        hi = float(model.col_ub[j])
        if model.col_kind[j] == BINARY and lo == 0.0 and hi == 1.0:
            lines.append(f" BV BND  {cname}")
            continue
        if lo == hi:
            lines.append(f" FX BND  {cname}  {_num(lo)}")
            continue
        if lo == -np.inf and hi == np.inf:
            lines.append(f" FR BND  {cname}")
            continue
        if lo == -np.inf:
            lines.append(f" MI BND  {cname}")
        else:
            lines.append(f" LO BND  {cname}  {_num(lo)}")
        if hi == np.inf:
            lines.append(f" PL BND  {cname}")
        else:
            lines.append(f" UP BND  {cname}  {_num(hi)}")

    lines.append("ENDATA")
    return "\n".join(lines) + "\n"
