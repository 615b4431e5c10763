"""Strict free-format MPS reader, the round-trip oracle for write_mps.

parse_mps(write_mps(model)) must reproduce the model coefficient for
coefficient. The reader is strict: unknown sections, ranged rows,
duplicate coefficients and malformed numbers all raise MpsFormatError with
the line number. Columns never mentioned in BOUNDS default to [0, +inf)
whatever their integrality; UP never implies a lower bound.
"""

import numpy as np
from scipy import sparse

from hubplan.errors import MpsFormatError
from hubplan.model import BINARY, CONT, EQ, GE, INTEGER, LE, MilpModel

_CHAR_SENSE = {"L": LE, "G": GE, "E": EQ}


def _parse_num(tok, lineno):
    try:
        return float(tok)
    except ValueError:
        raise MpsFormatError(f"line {lineno}: bad number {tok!r}") from None


_SECTIONS = {"NAME", "ROWS", "COLUMNS", "RHS", "RANGES", "BOUNDS", "ENDATA"}


def parse_mps(text) -> MilpModel:
    """Parse free-format MPS text into a MilpModel.

    Row order follows ROWS, column order follows first appearance in
    COLUMNS. Exactly one free (N) row is accepted and becomes the
    objective.
    """
    section = None
    obj_row = None
    row_names, row_sense = [], []
    row_id = {}
    col_names, col_kind = [], []
    col_id = {}
    obj_coef = {}
    entries = {}
    rhs_map = {}
    bnd_lo, bnd_hi = {}, {}
    in_int = False
    saw_end = False

    def get_col(tok, lineno):
        if tok not in col_id:
            raise MpsFormatError(f"line {lineno}: unknown column {tok!r}")
        return col_id[tok]

    for lineno, raw in enumerate(text.splitlines(), start=1):
        if not raw.strip() or raw.lstrip().startswith("*"):
            continue
        if not raw[0].isspace():
            fields = raw.split()
            head = fields[0]
            if head not in _SECTIONS:
                raise MpsFormatError(f"line {lineno}: unknown section {head!r}")
            section = head
            if head == "ENDATA":
                saw_end = True
                break
            continue
        fields = raw.split()

        if section == "ROWS":
            if len(fields) != 2:
                raise MpsFormatError(f"line {lineno}: malformed row entry")
            kind, rname = fields
            if kind == "N":
                if obj_row is not None:
                    raise MpsFormatError(f"line {lineno}: second free row "
                                         f"{rname!r}")
                obj_row = rname
            elif kind in _CHAR_SENSE:
                if rname in row_id:
                    raise MpsFormatError(f"line {lineno}: duplicate row "
                                         f"{rname!r}")
                row_id[rname] = len(row_names)
                row_names.append(rname)
                row_sense.append(_CHAR_SENSE[kind])
            else:
                raise MpsFormatError(f"line {lineno}: bad row type {kind!r}")

        elif section == "COLUMNS":
            if "'MARKER'" in fields:
                if "'INTORG'" in fields:
                    in_int = True
                elif "'INTEND'" in fields:
                    in_int = False
                else:
                    raise MpsFormatError(f"line {lineno}: bad marker line")
                continue
            if len(fields) not in (3, 5):
                raise MpsFormatError(f"line {lineno}: malformed column entry")
            cname = fields[0]
            if cname not in col_id:
                col_id[cname] = len(col_names)
                col_names.append(cname)
                col_kind.append(INTEGER if in_int else CONT)
            j = col_id[cname]
            for k in range(1, len(fields), 2):
                rname = fields[k]
                val = _parse_num(fields[k + 1], lineno)
                if rname == obj_row:
                    if j in obj_coef:
                        raise MpsFormatError(f"line {lineno}: duplicate "
                                             f"objective entry for {cname!r}")
                    obj_coef[j] = val
                elif rname in row_id:
                    key = (row_id[rname], j)
                    if key in entries:
                        raise MpsFormatError(
                            f"line {lineno}: duplicate coefficient "
                            f"({rname!r}, {cname!r})")
                    entries[key] = val
                else:
                    raise MpsFormatError(f"line {lineno}: unknown row "
                                         f"{rname!r}")

        elif section == "RHS":
            if len(fields) not in (3, 5):
                raise MpsFormatError(f"line {lineno}: malformed rhs entry")
            for k in range(1, len(fields), 2):
                rname = fields[k]
                val = _parse_num(fields[k + 1], lineno)
                if rname == obj_row:
                    raise MpsFormatError(f"line {lineno}: rhs on the "
                                         "objective row is not supported")
                if rname not in row_id:
                    raise MpsFormatError(f"line {lineno}: unknown row "
                                         f"{rname!r}")
                rhs_map[row_id[rname]] = val

        elif section == "RANGES":
            raise MpsFormatError(f"line {lineno}: ranged rows are not "
                                 "supported")

        elif section == "BOUNDS":
            btype = fields[0]
            if btype in ("FR", "MI", "PL", "BV"):
                if len(fields) != 3:
                    raise MpsFormatError(f"line {lineno}: malformed bound")
                j = get_col(fields[2], lineno)
                if btype == "FR":
                    bnd_lo[j], bnd_hi[j] = -np.inf, np.inf
                elif btype == "MI":
                    bnd_lo[j] = -np.inf
                elif btype == "PL":
                    bnd_hi[j] = np.inf
                else:
                    bnd_lo[j], bnd_hi[j] = 0.0, 1.0
                    col_kind[j] = BINARY
            elif btype in ("LO", "UP", "FX", "LI", "UI"):
                if len(fields) != 4:
                    raise MpsFormatError(f"line {lineno}: malformed bound")
                j = get_col(fields[2], lineno)
                val = _parse_num(fields[3], lineno)
                if btype in ("LO", "LI"):
                    bnd_lo[j] = val
                elif btype in ("UP", "UI"):
                    bnd_hi[j] = val
                else:
                    bnd_lo[j] = bnd_hi[j] = val
            else:
                raise MpsFormatError(f"line {lineno}: bad bound type "
                                     f"{btype!r}")

        elif section == "NAME":
            raise MpsFormatError(f"line {lineno}: data outside a section")
        else:
            raise MpsFormatError(f"line {lineno}: data before any section")

    if not saw_end:
        raise MpsFormatError("missing ENDATA")
    if obj_row is None:
        raise MpsFormatError("no free (N) row for the objective")

    m, n = len(row_names), len(col_names)
    obj = np.zeros(n)
    for j, v in obj_coef.items():
        obj[j] = v
    rhs = np.zeros(m)
    for i, v in rhs_map.items():
        rhs[i] = v
    lb = np.zeros(n)
    ub = np.full(n, np.inf)
    for j, v in bnd_lo.items():
        lb[j] = v
    for j, v in bnd_hi.items():
        ub[j] = v
    if entries:
        rows, cols, vals = zip(*((i, j, v) for (i, j), v in entries.items()))
        a = sparse.csr_matrix((vals, (rows, cols)), shape=(m, n))
    else:
        a = sparse.csr_matrix((m, n))
    model = MilpModel(
        n_rows=m, n_cols=n, obj=obj, a_matrix=a,
        row_sense=np.asarray(row_sense, dtype=np.int8), rhs=rhs,
        row_names=row_names, col_lb=lb, col_ub=ub,
        col_kind=np.asarray(col_kind, dtype=np.int8), col_names=col_names)
    model.check()
    return model
