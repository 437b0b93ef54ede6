"""Pieces several modules share: the malformed-document rule, one rule per
JSON value type (``number``, ``json_array``, ``json_object`` and, for strings,
booleans and integers, ``json_scalar``), the CSV table rule, the number-text
rule and the DAG walker. Each value rule raises a TypeError or ValueError, so
a document reader reports a value of the wrong type or length as malformed.
This module imports nothing from the package."""

from __future__ import annotations

import csv
import functools
import heapq
import json
import math
import re
from typing import Callable, Collection, Mapping

#: What a reader raises when a document has the wrong shape: a missing key,
#: a value of the wrong type or content, a short list. JSON syntax errors are
#: ValueErrors too.
MALFORMED = (AttributeError, IndexError, KeyError, TypeError, ValueError)


class ModelError(Exception):
    """Base of every module's own error base (``OddModelError``,
    ``BayesError``, ...): a model, or an operation on one, is invalid."""


class DocumentError(Exception):
    """Base of every error meaning an input document is unreadable or
    malformed. Each module's own document error also derives from its module
    base, so ``except <Module>Error`` still catches it."""


def document_reader(what: str, error: type[DocumentError] = DocumentError):
    """Decorate a function whose first argument is a document, given as JSON
    text or as an already-parsed object; text is decoded before the call.

    This is the one rule for what counts as malformed: any ``MALFORMED``
    error raised while the document is read becomes ``error`` with the
    message ``malformed <what>: ...``. Errors of the package pass unchanged.
    """

    def decorate(read: Callable) -> Callable:
        @functools.wraps(read)
        def read_document(document, *args, **kwargs):
            try:
                if isinstance(document, str):
                    document = _decode(document)
                return read(document, *args, **kwargs)
            except MALFORMED as exc:
                detail = f"missing key {exc}" if isinstance(exc, KeyError) else exc
                raise error(f"malformed {what}: {detail}") from exc

        return read_document

    return decorate


_scan_once = json.JSONDecoder().scan_once  # the scanner json.loads uses


def _decode(text: str):
    """``json.loads(text)``. A value that ends the text or is followed by
    one newline, as a stream line is, is read by the scanner alone; any
    other text, and every error, goes through ``json.loads``. Nesting too
    deep for the decoder's recursion is a ValueError, so malformed too."""
    try:
        try:
            value, end = _scan_once(text, 0)
        except (StopIteration, ValueError):
            return json.loads(text)
        if end != len(text) and text[end:] != "\n":
            return json.loads(text)
        return value
    except RecursionError:
        raise ValueError("JSON nested too deeply to decode") from None


NUMBER_TYPES = (float, int)  # JSON numbers; a bool is not one


def _spelled(value) -> str:
    """``value`` as the JSON text that holds it (``true``, ``null``,
    ``"x"``), so an error names what the document says; ``repr`` for a value
    JSON cannot encode."""
    try:
        return json.dumps(value, ensure_ascii=False)
    except (TypeError, ValueError):
        return repr(value)


def number(value, what: str) -> float:
    """``value`` as a float if it is a JSON number. A bool, a string or any
    other value is a TypeError, an integer too large for a float a
    ValueError, so a document reader reports either as malformed."""
    if type(value) not in NUMBER_TYPES:
        raise TypeError(f"{what} must be a number, got {_spelled(value)}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{what} is too large for a float") from None


def json_array(value, what: str, length: int | None = None) -> tuple:
    """``value`` as a tuple if it is a JSON array (a list, or a tuple in a
    document built in Python), else a TypeError: a string is not read as the
    array of its characters, nor an object as the array of its keys. An array
    of other than ``length`` items, when given, is a ValueError."""
    if type(value) not in (list, tuple):
        raise TypeError(f"{what} must be an array, got {_spelled(value)}")
    if length is not None and len(value) != length:
        raise ValueError(f"{what} must be an array of {length} items, got {_spelled(value)}")
    return tuple(value)


def json_object(value, what: str, values: type = object) -> dict:
    """``value`` if it is a JSON object whose values are all ``values``, else a TypeError."""
    if not isinstance(value, dict) or not all(isinstance(v, values) for v in value.values()):
        kind = "an object" if values is object else f"an object of {values.__name__} values"
        raise TypeError(f"{what} must be {kind}, got {_spelled(value)}")
    return value


def json_scalar(value, what: str, kind: type = str):
    """``value`` if its type is exactly ``kind`` (``str``, ``bool`` or
    ``int``), else a TypeError: ``"false"`` is not a boolean, and a bool is
    neither a string nor an integer."""
    if type(value) is not kind:
        name = {str: "a string", bool: "true or false", int: "an integer"}[kind]
        raise TypeError(f"{what} must be {name}, got {_spelled(value)}")
    return value


def csv_table(lines) -> tuple[list[str], list[list[str]], list[int]]:
    """The header, the rows and the line each row ends on of CSV ``lines``,
    read by ``csv.reader`` with blank lines skipped. A header that repeats a
    column, a row without one cell per column (RFC 4180 §2), or a row
    ``csv`` cannot read (a cell past its field size limit) is a ValueError
    naming the row by the line it ends on; the header is row 1."""
    reader = csv.reader(lines)
    try:
        header = next(reader, [])
        for i, name in enumerate(header):
            if name in header[:i]:
                raise ValueError(f"row 1 repeats column {name!r}")
        rows, ends = [], []
        for cells in reader:
            if cells:
                if len(cells) != len(header):
                    raise ValueError(f"row {reader.line_num} has {len(cells)} cells, "
                                     f"the header has {len(header)}")
                rows.append(cells)
                ends.append(reader.line_num)
    except csv.Error as exc:
        raise ValueError(f"row {reader.line_num}: {exc}") from exc
    return header, rows, ends


#: A number written as text (an ontology term, an ODD interval bound, a
#: ``--values`` number): an optional sign, ASCII digits with at most one point
#: and an optional exponent. Every JSON number matches, as do ``.5``, ``1.``
#: and ``+7``.
NUMBER_TEXT = re.compile(r"[+-]?([0-9]+\.?[0-9]*|\.[0-9]+)([eE][+-]?[0-9]+)?")


def number_text(text: str) -> float:
    """``text`` as a float if all of it matches ``NUMBER_TEXT``. Other text,
    padding whitespace included, or a number too large for a float is a
    ValueError."""
    if not NUMBER_TEXT.fullmatch(text):
        raise ValueError(f"{text!r} is not a number")
    value = float(text)
    if math.isinf(value):
        raise ValueError(f"number {text!r} overflows a float")
    return value


def dag_order(in_edges: Mapping[str, Collection[str]]) -> tuple[list[str], list[str]]:
    """Kahn's topological sort of the graph given as node -> predecessors.

    Every node must be a key. Among ready nodes the smallest id goes first.
    Returns ``(order, [])`` for a DAG. Otherwise ``order`` holds only the
    nodes no cycle reaches, and the second item is one cycle, written from
    each node to one of its predecessors and closed on its first node.
    """
    successors: dict[str, list[str]] = {node: [] for node in in_edges}
    for node, preds in in_edges.items():
        for pred in preds:
            successors[pred].append(node)
    indegree = {node: len(preds) for node, preds in in_edges.items()}
    ready = [node for node, d in indegree.items() if d == 0]
    heapq.heapify(ready)
    order = []
    while ready:
        node = heapq.heappop(ready)
        order.append(node)
        for succ in successors[node]:
            indegree[succ] -= 1
            if indegree[succ] == 0:
                heapq.heappush(ready, succ)
    if len(order) == len(indegree):
        return order, []

    # A node left over keeps a left-over predecessor, so walking predecessors
    # from any of them must come back to a node already on the walk.
    node = next(n for n, d in indegree.items() if d > 0)
    walk: dict[str, None] = {}
    while node not in walk:
        walk[node] = None
        node = next(p for p in in_edges[node] if indegree[p] > 0)
    path = list(walk)
    cycle = path[path.index(node):]
    return order, cycle + [node]
