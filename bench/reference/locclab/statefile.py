"""Versioned JSON state files.

A state file is a single JSON object: ``version`` (currently 1), ``form``
("vector" or "matrix"), ``amplitudes`` (a flat or nested array of decimals)
and an optional ``label``.  Amplitude text is emitted with ``repr``, the
shortest decimal that parses back to the identical float, so parse-emit
round-trips are bit-exact.
"""

from __future__ import annotations

import json
import math
import warnings

from .states import MATRIX_FORM, SUM_TOL, VECTOR_FORM, PureState

STATE_FILE_VERSION = 1
# Norm deviations up to this are silently repaired (with a warning); anything
# larger needs an explicit renormalize request.
RENORM_SLACK = 1e-9


class StateFileError(ValueError):
    """The document is not a well-formed state file."""


def _require_number(x, where: str) -> float:
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise StateFileError(f"{where}: expected a number, got {x!r}")
    value = float(x)
    if not math.isfinite(value):
        raise StateFileError(f"{where}: non-finite value {x!r}")
    return value


def state_from_document(doc: dict, *, renormalize: bool = False) -> PureState:
    """Build a state from a parsed JSON object (used for embedded documents too)."""
    if not isinstance(doc, dict):
        raise StateFileError(f"expected a JSON object, got {type(doc).__name__}")
    form = doc.get("form")
    amplitudes = doc.get("amplitudes")
    if form not in (VECTOR_FORM, MATRIX_FORM):
        raise StateFileError(f"unknown form {form!r}")
    if not isinstance(amplitudes, list) or not amplitudes:
        raise StateFileError("amplitudes must be a non-empty array")
    if form == VECTOR_FORM:
        values = [_require_number(x, "amplitudes") for x in amplitudes]
        sumsq = sum(v * v for v in values)
    else:
        if not all(isinstance(row, list) and row for row in amplitudes):
            raise StateFileError("matrix amplitudes must be non-empty rows")
        width = len(amplitudes[0])
        if any(len(row) != width for row in amplitudes):
            raise StateFileError("matrix rows must have equal length")
        values = [[_require_number(x, "amplitudes") for x in row] for row in amplitudes]
        sumsq = sum(v * v for row in values for v in row)
    deviation = abs(sumsq - 1.0)
    if deviation > SUM_TOL:
        if deviation > RENORM_SLACK and not renormalize:
            raise StateFileError(
                f"squared amplitudes sum to {sumsq!r}; deviation {deviation:.3e} "
                f"exceeds {RENORM_SLACK:.0e} and renormalization was not requested"
            )
        if sumsq <= 0.0:
            raise StateFileError("state has zero norm")
        warnings.warn(
            f"renormalizing state: squared amplitudes summed to {sumsq!r}",
            stacklevel=2,
        )
        scale = 1.0 / math.sqrt(sumsq)
        if form == VECTOR_FORM:
            values = [v * scale for v in values]
        else:
            values = [[v * scale for v in row] for row in values]
    if form == VECTOR_FORM:
        return PureState.vector(values)
    return PureState.matrix(values)


def parse_state_file(text: str, *, renormalize: bool = False) -> PureState:
    """Parse a state-file document into a validated :class:`PureState`."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise StateFileError(f"not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise StateFileError("state file must be a JSON object")
    version = doc.get("version")
    if version != STATE_FILE_VERSION:
        raise StateFileError(f"unsupported state file version {version!r}")
    label = doc.get("label")
    if label is not None and not isinstance(label, str):
        raise StateFileError(f"label must be text, got {label!r}")
    return state_from_document(doc, renormalize=renormalize)


def state_document(state: PureState) -> dict:
    if state.is_vector:
        return {"form": VECTOR_FORM, "amplitudes": list(state.amplitudes)}
    return {"form": MATRIX_FORM, "amplitudes": [list(row) for row in state.amplitudes]}


def emit_state_file(state: PureState, label: str | None = None) -> str:
    doc = {"version": STATE_FILE_VERSION}
    doc.update(state_document(state))
    if label is not None:
        doc["label"] = label
    return json.dumps(doc, indent=2) + "\n"
