"""On-disk formats: state-set files and certificate files.

State sets are stored as plain JSON with every amplitude written as a
two-element [re, im] array at 17 significant digits, so a load/dump cycle is
byte-identical and verdicts survive serialization exactly.

A file in the writer's own layout is read by splitting each state line into
its local-vector texts and decoding each distinct text once.  Any other
layout goes through json.loads, as does every file with an error in it, so
that both kinds of file are accepted, refused and reported alike.
"""

from __future__ import annotations

import json
import marshal
import os
import re
from itertools import accumulate

import numpy as np

from .certifier import Certificate
from .tensor_core import StateSet, _check_local_vectors

__all__ = [
    "FORMAT_VERSION",
    "dumps_state_set",
    "dump_state_set",
    "loads_state_set",
    "load_state_set",
    "certificate_to_dict",
    "dumps_certificate",
    "dump_certificate",
]

FORMAT_VERSION = "nlops-1"

# The lines a state-set file holds before and after the dims, label and states.
_HEAD = ["{", f'  "format_version": {json.dumps(FORMAT_VERSION)},']
_STATES = '  "states": ['
_TAIL = ["  ]", "}", ""]


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _vector_text(vec: np.ndarray, normalize: bool) -> str:
    if normalize:
        vec = vec / np.linalg.norm(vec)
    return "[" + ", ".join(f"[{_fmt(z.real)}, {_fmt(z.imag)}]" for z in vec.tolist()) + "]"


def dumps_state_set(state_set: StateSet, normalize: bool = False) -> str:
    """Serialize a state set; normalize divides each local vector by its norm."""
    lines = [
        *_HEAD,
        f'  "dims": {json.dumps(list(state_set.dims))},',
        f'  "label": {json.dumps(state_set.label)},',
        _STATES,
    ]
    # Each distinct local vector is formatted once, even when parties share it.
    # Keys are the exact bytes, so 0.0 and -0.0 keep their own spellings.
    memo: dict[bytes, str] = {}
    texts = []  # texts[j][r]: row r of party j's table, formatted
    for table in state_set.vectors:
        party_texts = []
        for vec in table:
            key = vec.tobytes()
            if key not in memo:
                memo[key] = _vector_text(vec, normalize)
            party_texts.append(memo[key])
        texts.append(party_texts)
    last = len(state_set) - 1
    for idx, row in enumerate(state_set.index.tolist()):
        comma = "," if idx < last else ""
        lines.append("    [" + ", ".join(map(list.__getitem__, texts, row)) + "]" + comma)
    return "\n".join(lines + _TAIL)


def dump_state_set(state_set: StateSet, path: str | os.PathLike, normalize: bool = False) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_state_set(state_set, normalize))


# Amplitude types a file may hold; bool is a subclass of int and is refused.
_NUMBER = (int, float)


# A bare -0 amplitude, which json reads as the integer 0 and so drops its sign.
_NEGATIVE_ZERO = re.compile(r"-0[,\]\s]")


def _int_keeping_negative_zero(digits: str) -> int | float:
    return -0.0 if digits == "-0" else int(digits)


def _require(cond: bool, what: str) -> None:
    if not cond:
        raise ValueError(f"malformed-file: {what}")


def loads_state_set(text: str) -> StateSet:
    """Parse and validate a serialized state set."""
    state_set = _load_written(text)
    return _load_json(text) if state_set is None else state_set


# Decodes the values of files in the writer's layout; a bare -0 keeps its sign.
_DECODER = json.JSONDecoder(parse_int=_int_keeping_negative_zero)


def _decoded(text: str):
    """The JSON value that text holds and nothing else; ValueError if there is none."""
    value, end = _DECODER.scan_once(text, 0)
    if end != len(text):
        raise ValueError("text after the value")
    return value


def _field(line: str, key: str):
    """The decoded value of a line that reads '  "key": <value>,'."""
    prefix = f'  "{key}": '
    if not (line.startswith(prefix) and line.endswith(",")):
        raise ValueError(f"no {key} line")
    return _decoded(line[len(prefix):-1])


def _load_written(text: str) -> StateSet | None:
    """The set in text if text has exactly the layout dumps_state_set writes,
    else None; None too if anything in it is wrong, for the JSON path to report.

    Each state line is split into its local-vector texts and each distinct
    text is decoded once.  When every line matches the layout and each text
    is a complete JSON value, text is a JSON document holding exactly these
    values, so the JSON path would build the same table.
    """
    lines = text.split("\n")
    if len(lines) < 8 or lines[:2] != _HEAD or lines[4] != _STATES or lines[-3:] != _TAIL:
        return None
    try:
        dims, label = _field(lines[2], "dims"), _field(lines[3], "label")
        if not (type(dims) is list and len(dims) >= 2 and type(label) is str
                and all(type(d) is int and d >= 1 for d in dims)):
            return None
        states = lines[5:-3]
        known = [{} for _ in dims]  # per party: vector text -> table row
        rows = [{} for _ in dims]  # per party: amplitude bytes -> table row
        decoded = {}  # vector text -> its decoded list, for every party
        index = []
        for s_idx, line in enumerate(states):
            # '    [[[' + the texts joined by ']], [[' + ']]]', and a comma on all but the last
            end = "]]]" if s_idx == len(states) - 1 else "]]],"
            if not (line.startswith("    [[[") and line.endswith(end)):
                return None
            texts = line[7:-len(end)].split("]], [[")
            if len(texts) != len(dims):
                return None
            row = list(map(dict.get, known, texts))
            if None in row:  # vector texts these parties have not held yet
                for p_idx, vec_text in enumerate(texts):
                    if row[p_idx] is None:
                        raw = decoded.get(vec_text)
                        if raw is None:
                            raw = decoded[vec_text] = _decoded("[[" + vec_text + "]]")
                        row[p_idx] = known[p_idx][vec_text] = _row_of(
                            rows[p_idx], _converted(raw, dims[p_idx], s_idx, p_idx))
            index.append(row)
        return _state_set(dims, rows, index, label)
    except Exception:  # whatever failed, the JSON path reads text again and names it
        return None


def _load_json(text: str) -> StateSet:
    """Parse and validate a state set in any JSON layout."""
    try:
        # The -0 parser runs only when needed: it doubles decode time.
        doc = json.loads(text, parse_int=_int_keeping_negative_zero
                         if _NEGATIVE_ZERO.search(text) else None)
    except (ValueError, RecursionError) as exc:
        # ValueError also covers integers longer than Python's digit limit.
        raise ValueError(f"malformed-file: invalid JSON ({exc})") from exc
    _require(isinstance(doc, dict), "top level must be an object")
    _require(doc.get("format_version") == FORMAT_VERSION,
             f"format_version must be {FORMAT_VERSION!r}")
    dims = doc.get("dims")
    _require(isinstance(dims, list) and len(dims) >= 2, "dims must list >= 2 parties")
    _require(all(type(d) is int and d >= 1 for d in dims),
             "dims must be positive integers")
    label = doc.get("label", "")
    _require(isinstance(label, str), "label must be a string")
    raw_states = doc.get("states")
    _require(isinstance(raw_states, list), "states must be an array")
    # The families repeat a few local vectors many times, so each party's
    # distinct decoded vectors are checked and converted once.  A vector's key
    # is the marshal bytes (format 2, which has no back-references) of its
    # decoded list: they hold each value's type and exact bits, so values that
    # decode differently (-0.0 and 0.0, true and 1, "1" and 1) get different
    # keys.  Messages are formatted only on failure.
    known: list[dict[bytes, int]] = [{} for _ in dims]  # per party: key -> table row
    rows: list[dict[bytes, int]] = [{} for _ in dims]  # per party: amplitude bytes -> row
    index = []
    for s_idx, raw in enumerate(raw_states):
        if not (isinstance(raw, list) and len(raw) == len(dims)):
            raise ValueError(f"malformed-file: state {s_idx} must have one entry per party")
        keys = [marshal.dumps(raw_vec, 2) for raw_vec in raw]
        line = list(map(dict.get, known, keys))
        if None in line:  # vectors these parties have not held yet
            fresh = [p_idx for p_idx, row in enumerate(line) if row is None]
            vecs = [_converted(raw[p_idx], dims[p_idx], s_idx, p_idx) for p_idx in fresh]
            try:  # one bad-local check per state, as ProductState makes
                _check_local_vectors(np.concatenate(vecs),
                                     [0, *accumulate(len(v) for v in vecs[:-1])])
            except ValueError as exc:
                raise ValueError(f"malformed-file: state {s_idx}: {exc}") from exc
            for p_idx, vec in zip(fresh, vecs):
                line[p_idx] = known[p_idx][keys[p_idx]] = _row_of(rows[p_idx], vec)
        index.append(line)
    return _state_set(dims, rows, index, label)


def _row_of(rows: dict[bytes, int], vec: np.ndarray) -> int:
    """The table row of a converted local vector, keyed on its amplitudes' bytes
    (so that 1 and 1.0 share one); a vector not seen before gets the next row."""
    return rows.setdefault(vec.tobytes(), len(rows))


def _state_set(dims: list[int], rows: list[dict[bytes, int]], index: list[list[int]],
               label: str) -> StateSet:
    """The set whose party j table holds the vectors keyed in rows[j], in row order."""
    vectors = [np.frombuffer(b"".join(table), dtype=np.complex128).reshape(len(table), d)
               for table, d in zip(rows, dims)]
    try:
        return StateSet.from_table(tuple(dims), vectors,
                                   np.array(index, dtype=np.intp).reshape(-1, len(dims)),
                                   label=label)
    except ValueError as exc:
        raise ValueError(f"malformed-file: {exc}") from exc


def _converted(raw_vec, d: int, s_idx: int, p_idx: int) -> np.ndarray:
    """One decoded local vector, first held by state s_idx at party p_idx, with
    its shape and types checked, converted to complex amplitudes."""
    if not (isinstance(raw_vec, list) and len(raw_vec) == d):
        raise ValueError(
            f"malformed-file: state {s_idx} party {p_idx} must have {d} amplitudes")
    if not all(type(pair) is list and len(pair) == 2
               and type(pair[0]) in _NUMBER and type(pair[1]) in _NUMBER
               for pair in raw_vec):
        raise ValueError(f"malformed-file: state {s_idx} party {p_idx}: "
                         "amplitudes must be [re, im] numbers")
    try:
        return np.array(raw_vec, dtype=np.float64).view(np.complex128).ravel()
    except OverflowError as exc:
        raise ValueError(f"malformed-file: state {s_idx} party {p_idx}: "
                         "amplitude too large for a float") from exc


def load_state_set(path: str | os.PathLike) -> StateSet:
    with open(path, "r", encoding="utf-8") as fh:
        return loads_state_set(fh.read())


def certificate_to_dict(cert: Certificate) -> dict:
    """Certificate as a JSON-ready dictionary."""
    parties = []
    for rep in cert.parties:
        entry = {
            "party": rep.party,
            "active_pairs": rep.active_pairs,
            "solution_dim": rep.solution_dim,
            "trivial": rep.trivial,
        }
        if rep.witness is not None:
            entry["witness"] = {
                "dim": rep.witness.dim,
                "coords": [float(c) for c in rep.witness.coords],
            }
        parties.append(entry)
    return {
        "format_version": FORMAT_VERSION,
        "label": cert.label,
        "dims": list(cert.dims),
        "tolerances": {
            "tol_rank": cert.tolerances.tol_rank,
            "tol_active": cert.tolerances.tol_active,
            "tol_orth": cert.tolerances.tol_orth,
        },
        "orthogonality": {
            "pass": cert.orthogonality.passed,
            "max_residual": cert.orthogonality.max_residual,
        },
        "parties": parties,
        "verdict": cert.verdict,
    }


def dumps_certificate(cert: Certificate) -> str:
    return json.dumps(certificate_to_dict(cert), indent=2) + "\n"


def dump_certificate(cert: Certificate, path: str | os.PathLike) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_certificate(cert))
