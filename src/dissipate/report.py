"""Deterministic rendering of analysis reports.

A report is plain data: the command name, a content digest of the
operator document it ran on, and the sections a command handler
returns: the echoed inputs, a verdict (decision plus the criterion that
produced it), numeric results, optional witness data and free-form
notes.  Rendering is byte deterministic so golden files can compare
exact output:

* key order is fixed by construction (insertion order, never sorted
  at render time),
* floats go through repr (shortest round-trip form),
* non-finite floats become the strings "inf"/"-inf"/"nan"; json.dumps
  would otherwise emit a bare Infinity token, which is not JSON,
* the timing slot is always null; wall clock readings would break
  byte-for-byte reproducibility, so they are not recorded at all.
"""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np

__all__ = ["render_report", "spec_digest"]


def spec_digest(doc):
    """Short content hash of a parsed operator document."""
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("ascii")).hexdigest()[:12]


def _clean(obj):
    """Recursively convert to JSON-safe plain Python values."""
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        # np.float64 subclasses float; float() normalizes its repr
        if math.isnan(obj):
            return "nan"
        if math.isinf(obj):
            return "inf" if obj > 0 else "-inf"
        return float(obj)
    if isinstance(obj, np.generic):
        return _clean(obj.item())
    if isinstance(obj, dict):
        return {str(k): _clean(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_clean(v) for v in obj]
    raise TypeError(f"cannot render value of type {type(obj).__name__}")


def _scalar(v):
    if isinstance(v, str):
        return v
    if v is None:
        return "null"
    if v is True:
        return "true"
    if v is False:
        return "false"
    if isinstance(v, float):
        return repr(v)
    if isinstance(v, int):
        return str(v)
    if isinstance(v, list):
        return "[" + ", ".join(_scalar(x) for x in v) + "]"
    return "{" + ", ".join(f"{k}: {_scalar(x)}" for k, x in v.items()) + "}"


def render_report(command, spec, sections, format="text"):
    """Render one report to a string; format is "json" or "text".

    ``spec`` is the digest of the operator document and ``sections`` a
    dict of any of "inputs", "verdict", "numbers", "witness" and "notes".
    """
    payload = _clean({
        "command": command,
        "spec": spec,
        "inputs": None,
        "verdict": None,
        "numbers": None,
        "witness": None,
        "notes": (),
        **sections,
        "timing": None,
    })
    if format == "json":
        return json.dumps(payload, indent=2) + "\n"
    if format != "text":
        raise ValueError(f"unknown report format {format!r}")

    lines = [f"dissipate {command}", f"spec {spec}"]
    for name in ("inputs", "verdict", "numbers", "witness"):
        section = payload[name]
        lines.append("")
        lines.append(name)
        if not section:
            lines.append("  (none)")
            continue
        for k, v in section.items():
            lines.append(f"  {k}: {_scalar(v)}")
    if payload["notes"]:
        lines.append("")
        lines.append("notes")
        for note in payload["notes"]:
            lines.append(f"  - {note}")
    return "\n".join(lines) + "\n"
