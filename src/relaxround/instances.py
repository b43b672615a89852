"""Reading and writing model instances as JSON files.

The writer emits floats with 17 significant digits so values round-trip
exactly; the reader rejects missing fields, entries that are not JSON
numbers (strings, booleans, null) and malformed shapes, and the model
constructors it calls reject non-finite entries. Writes are atomic
(temp file plus rename).
"""

from __future__ import annotations

import json
import os
import tempfile

import numpy as np

from .models import Domain, MrfParams, RbmParams


class InstanceFormatError(ValueError):
    """An instance file or document is malformed."""


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _fmt_vector(v: np.ndarray) -> str:
    return "[" + ", ".join(_fmt(x) for x in v) + "]"


def _fmt_matrix(M: np.ndarray, indent: str) -> str:
    rows = (",\n" + indent + "  ").join(_fmt_vector(row) for row in M)
    return "[\n" + indent + "  " + rows + "\n" + indent + "]"


def instance_header(params) -> dict:
    """The kind, domain and sizes of an MrfParams or RbmParams, in the order
    the instance file writes them; the report's instance block repeats them."""
    if isinstance(params, MrfParams):
        return {"kind": "mrf", "domain": params.domain.value, "n": params.n}
    if isinstance(params, RbmParams):
        return {"kind": "rbm", "domain": params.domain.value, "m": params.m,
                "p": params.p}
    raise ValueError(f"cannot serialize {type(params).__name__}")


def dumps_instance(params) -> str:
    """Serialize an MrfParams or RbmParams to the instance JSON format."""
    fields = [f'"{k}": {json.dumps(v)}' for k, v in instance_header(params).items()]
    if isinstance(params, MrfParams):
        fields.append(f'"A": {_fmt_matrix(params.A, "  ")}')
    else:
        fields += [
            f'"W": {_fmt_matrix(params.W, "  ")}',
            f'"a": {_fmt_vector(params.a)}',
            f'"b": {_fmt_vector(params.b)}',
        ]
    return "{\n  " + ",\n  ".join(fields) + "\n}\n"


def write_atomic(path: str, text: str) -> None:
    """Write text to path as UTF-8 through a temporary file in the same
    directory and a rename, so the path never holds a partial file. The
    file gets the mode open(path, "w") gives a new file, 0o666 less the
    umask, where mkstemp alone would leave 0o600."""
    directory = os.path.dirname(os.path.abspath(path))
    umask = os.umask(0)
    os.umask(umask)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            os.chmod(tmp, 0o666 & ~umask)
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _reject_constant(token: str):
    raise InstanceFormatError(f"non-finite number {token!r} in instance")


def _get(doc: dict, key: str):
    if key not in doc:
        raise InstanceFormatError(f"missing field {key!r}")
    return doc[key]


def _as_int(doc: dict, key: str) -> int:
    value = _get(doc, key)
    if not isinstance(value, int) or isinstance(value, bool):
        raise InstanceFormatError(f"field {key!r} must be an integer")
    return value


def _as_array(doc: dict, key: str) -> np.ndarray:
    """The field as a float array of JSON numbers, since np.array would parse
    a string and upcast a boolean; the shape checks below and the model
    constructors validate the rest."""
    value = _get(doc, key)
    try:
        entries = np.array(value, dtype=object)  # a ragged list leaves lists
        if not set(map(type, entries.ravel().tolist())) <= {int, float}:
            raise TypeError("an entry is not a JSON number")
        return entries.astype(float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InstanceFormatError(f"field {key!r} is not a numeric array") from exc


def loads_instance(text: str):
    """Parse an instance document. Returns MrfParams or RbmParams."""
    try:
        doc = json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise InstanceFormatError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise InstanceFormatError("instance document must be a JSON object")

    domain_tag = _get(doc, "domain")
    try:
        domain = Domain(domain_tag)
    except ValueError:
        raise InstanceFormatError(f"unknown domain {domain_tag!r}") from None

    kind = _get(doc, "kind")
    if kind == "mrf":
        n = _as_int(doc, "n")
        A = _as_array(doc, "A")
        if A.shape != (n, n):
            raise InstanceFormatError(f"A has shape {A.shape}, expected ({n}, {n})")
        try:
            return MrfParams(A, domain)
        except ValueError as exc:
            raise InstanceFormatError(str(exc)) from exc
    if kind == "rbm":
        m = _as_int(doc, "m")
        p = _as_int(doc, "p")
        W = _as_array(doc, "W")
        a = _as_array(doc, "a")
        b = _as_array(doc, "b")
        if W.shape != (m, p):
            raise InstanceFormatError(f"W has shape {W.shape}, expected ({m}, {p})")
        if a.shape != (m,) or b.shape != (p,):
            raise InstanceFormatError(
                f"a/b have shapes {a.shape}/{b.shape}, expected ({m},)/({p},)"
            )
        try:
            return RbmParams(W, a, b, domain)
        except ValueError as exc:
            raise InstanceFormatError(str(exc)) from exc
    raise InstanceFormatError(f"unknown kind {kind!r}")


def load_instance(path: str):
    """Read an instance file. Returns MrfParams or RbmParams. A path that
    cannot be read (missing, a directory, no permission, an invalid name)
    or a file that is not UTF-8 text raises InstanceFormatError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InstanceFormatError(f"cannot read {path}: {exc}") from exc
    return loads_instance(text)
