"""On-disk formats: state-set files and certificate files.

State sets are stored as plain JSON with every amplitude written as a
two-element [re, im] array at 17 significant digits, so a load/dump cycle is
byte-identical and verdicts survive serialization exactly.

A file in the writer's own layout is read by splitting each state line into
its local-vector texts and decoding each distinct text once.  Any other
layout goes through json.loads, as does every file with an error in it.  Both
readers feed one table builder, so that both kinds of file are accepted,
refused and reported alike.
"""

from __future__ import annotations

import json
import marshal
import os
import re
from dataclasses import asdict

import numpy as np

from .certifier import Certificate
from .tensor_core import ProductState, StateSet

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


def _field(line: str, key: str):
    """The decoded value of a line that reads '  "key": <value>,'."""
    prefix = f'  "{key}": '
    if not (line.startswith(prefix) and line.endswith(",")):
        raise ValueError(f"no {key} line")
    return _DECODER.decode(line[len(prefix):-1])


def _load_written(text: str) -> StateSet | None:
    """The set in text if text has exactly the layout dumps_state_set writes,
    else None; None too if anything in it is wrong, for the JSON path to report.

    Each state line is split into its local-vector texts, which are the keys,
    and _built decodes each distinct text once.  When every line matches the
    layout and each text is a complete JSON value, text is a JSON document
    holding exactly these values, so the JSON path would build the same table.
    """
    lines = text.split("\n")
    if len(lines) < 8 or lines[:2] != _HEAD or lines[4] != _STATES or lines[-3:] != _TAIL:
        return None
    try:
        dims = _field(lines[2], "dims")
        return _built(dims, _field(lines[3], "label"), _written_keys(dims, lines[5:-3]),
                      lambda vec_text: _DECODER.decode(f"[[{vec_text}]]"))
    except Exception:  # whatever failed, the JSON path reads text again and names it
        return None


def _written_keys(dims: list[int], states: list[str]):
    """Each state line's keys: its local-vector texts."""
    for s_idx, line in enumerate(states):
        # '    [[[' + the texts joined by ']], [[' + ']]]', and a comma on all but the last
        end = "]]]" if s_idx == len(states) - 1 else "]]],"
        if not (line.startswith("    [[[") and line.endswith(end)):
            raise ValueError("not a state line")
        texts = line[7:-len(end)].split("]], [[")
        if len(texts) != len(dims):
            raise ValueError("not one vector per party")
        yield texts


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
    return _built(dims, doc.get("label", ""), _json_keys(dims, doc.get("states")),
                  marshal.loads)


def _json_keys(dims: list[int], raw_states):
    """Each state's keys, the marshal bytes (format 2: no back-references) of
    its decoded local vectors, which marshal.loads gives back.  The bytes hold
    each value's type and exact bits, so values that decode differently (-0.0
    and 0.0, true and 1, "1" and 1) get different keys.  Nothing runs before
    the first state is asked for: states that are no array are refused after
    dims and label."""
    if not isinstance(raw_states, list):
        raise ValueError("states must be an array")
    for s_idx, raw in enumerate(raw_states):
        if not (isinstance(raw, list) and len(raw) == len(dims)):
            raise ValueError(f"state {s_idx} must have one entry per party")
        yield [marshal.dumps(raw_vec, 2) for raw_vec in raw]


def _built(dims, label, key_rows, decode) -> StateSet:
    """The set of dims, label and states; key_rows yields each state's keys,
    one per party, which only equal local vectors share, and decode turns a
    key back into the decoded JSON value of its local vector.

    The families put the same few local vectors on every party, so each
    distinct key is decoded, checked and converted once per local dimension,
    however many parties hold it.  Amplitudes are checked once, by the table
    check of StateSet.from_table.  On any error the first finished state
    holding a bad vector is named, as its ProductState would name it: a bad
    vector is new at its first holder, so a check per state would stop there.
    """
    _require(isinstance(dims, list) and len(dims) >= 2, "dims must list >= 2 parties")
    _require(all(type(d) is int and d >= 1 for d in dims), "dims must be positive integers")
    _require(isinstance(label, str), "label must be a string")
    converted = {}  # (key, local dimension) -> amplitude bytes, shared by all parties
    known = [{} for _ in dims]  # per party: key -> table row
    rows = [{} for _ in dims]  # per party: amplitude bytes -> table row
    index = []
    try:
        for s_idx, keys in enumerate(key_rows):
            line = list(map(dict.get, known, keys))
            if None in line:  # keys these parties have not held yet
                for p_idx, key in enumerate(keys):
                    if line[p_idx] is None:
                        d = dims[p_idx]
                        amps = converted.get((key, d))
                        if amps is None:
                            amps = converted[key, d] = _converted(
                                decode(key), d, s_idx, p_idx).tobytes()
                        party_rows = rows[p_idx]
                        line[p_idx] = known[p_idx][key] = party_rows.setdefault(
                            amps, len(party_rows))
            index.append(line)
        # a d too large for numpy fails already in the reshape
        vectors = [np.frombuffer(b"".join(table), dtype=np.complex128).reshape(len(table), d)
                   for table, d in zip(rows, dims)]
        return StateSet.from_table(tuple(dims), vectors,
                                   np.array(index, dtype=np.intp).reshape(-1, len(dims)),
                                   label=label)
    except ValueError as exc:
        tables = [list(party_rows) for party_rows in rows]
        for s_idx, line in enumerate(index):
            try:
                ProductState(tuple(np.frombuffer(table[row], dtype=np.complex128)
                                   for table, row in zip(tables, line)))
            except ValueError as bad:
                raise ValueError(f"malformed-file: state {s_idx}: {bad}") from bad
        raise ValueError(f"malformed-file: {exc}") from exc


def _converted(raw_vec, d: int, s_idx: int, p_idx: int) -> np.ndarray:
    """One decoded local vector, first held by state s_idx at party p_idx, with
    its shape and types checked, converted to complex amplitudes."""
    if not (isinstance(raw_vec, list) and len(raw_vec) == d):
        raise ValueError(f"state {s_idx} party {p_idx} must have {d} amplitudes")
    if not all(type(pair) is list and len(pair) == 2
               and type(pair[0]) in _NUMBER and type(pair[1]) in _NUMBER
               for pair in raw_vec):
        raise ValueError(f"state {s_idx} party {p_idx}: amplitudes must be [re, im] numbers")
    try:
        return np.array(raw_vec, dtype=np.float64).view(np.complex128).ravel()
    except OverflowError as exc:
        raise ValueError(f"state {s_idx} party {p_idx}: "
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
        "tolerances": asdict(cert.tolerances),
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
