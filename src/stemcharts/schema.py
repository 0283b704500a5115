"""The shape of every input file, and the one walker that checks it.

Each file kind is one nested literal of `Leaf`s, lists `[item]` (a JSON
array of `item`s), `Record`s and `Map`s.  `check` walks a parsed file
against it before any reader sees it, and raises a SchemaError that starts
with the path of the first violation ("$" is the whole file).  It checks
JSON shapes and types only: value checks stay in the readers.
"""

import re
from typing import Callable, NamedTuple, Optional

from .charts import INF, _is_int, _is_prime
from .fields import VARIANTS


class SchemaError(ValueError):
    """A parsed input file whose shape or JSON types are off its schema."""


class Leaf(NamedTuple):  # a value that `ok` accepts; `need` says what
    need: str
    ok: Callable[[object], bool]


class Record(NamedTuple):
    """A JSON object named `what` with every `required` and any `optional`
    key (key -> schema); its other keys form an object of schema `rest`,
    and there are none when `rest` is None."""
    what: str
    required: dict = {}
    optional: dict = {}
    rest: object = None


class Map(NamedTuple):
    """A JSON object of `value`s by integer keys (as `str` spells them: not
    "01" or "1_0"), or by any names unless `ints`; `what` names it (default:
    its key in the parent), `entry` its keys (default: `what`)."""
    value: object
    what: Optional[str] = None
    entry: Optional[str] = None
    ints: bool = True


INT = Leaf("an integer", _is_int)
STRING = Leaf("a string", lambda v: isinstance(v, str))
PRIME = Leaf("a prime", lambda v: _is_int(v) and _is_prime(v))
COUNT = Leaf('an integer or "inf"', lambda v: v == INF or _is_int(v))
INT_OR_NULL = Leaf("an integer or null", lambda v: v is None or _is_int(v))
INTS = Leaf("a list of integers",
            lambda v: isinstance(v, list) and all(map(_is_int, v)))
ANY = Leaf("any JSON value", lambda v: True)  # checked by its reader

GROUP = Record("group", optional={
    "free_rank": COUNT, "torsion": INTS, "torsion_infinite": INTS,
    "modulus_precision": INT_OR_NULL, "completed_at": INT_OR_NULL,
    "divisible": Leaf("a boolean", lambda v: isinstance(v, bool))})
CHART = Record("chart", optional={
    "label": STRING,
    "prime": Leaf("null or a prime", lambda v: v is None or PRIME.ok(v)),
    "entries": [Record("chart entry", {"i": INT, "j": INT}, rest=GROUP)],
    # written by Ext and synthetic charts, read by no reader
    "axes": [STRING], "precision": INT, "kind": STRING, "s_max": INT,
    "t_max": INT, "degeneration_max": INT, "source": STRING,
    "filtrations": [ANY]})
FIELD = Record("field descriptor", {
    "variant": Leaf(f"one of {', '.join(VARIANTS)}", lambda v: v in VARIANTS),
}, {
    "name": STRING, "q": INT, "char": INT, "base_name": STRING,
    "tower_prime": INT, "km_table": Map(GROUP, "km_table"),
    "witt_table": Record("Witt table", {"GW": GROUP, "W": GROUP},
                         {"I": Map(GROUP), "k": Map(GROUP)}),
    "kmw_table": Map(GROUP, "kmw_table"),
    "roots_of_unity": Map(COUNT, "roots_of_unity"),
    "km_mod_p_dims": Map(Map(COUNT, "km_mod_p_dims"), "km_mod_p_dims")})
CATALOG = Record("catalog", optional={"fields": Map(FIELD, ints=False)})
# a stem's rows are checked with their values by `synthetic_from_table`
TABLE = Record("table", {"p": PRIME, "stems": Map(ANY, entry="table stem")})
# FptModule and IndFptModule check the shapes and entries of matrices
MODULE = Record("module", {"p": PRIME, "dim": INT, "t": [ANY]})
IND_SYSTEM = Record("ind-system", {"modules": [MODULE], "maps": [ANY]},
                    {"stable_from": INT})
_INT_KEY = re.compile(r"0|-?[1-9][0-9]*")


def check(value, node, label: str = "", path: str = "$"):
    """`value` if it has the shape of the schema `node`, else SchemaError.
    `label` names it and `path` locates it; an item that passes a Leaf is
    tested in place, with neither formatted."""
    def fail(problem):
        raise SchemaError(f"{path}: {problem}")

    if isinstance(node, Leaf):
        if not node.ok(value):
            fail(f"{label} is not {node.need}: {value!r}")
        return value
    label = getattr(node, "what", None) or label
    if not isinstance(value, list if isinstance(node, list) else dict):
        fail(f"{label} is a {type(value).__name__}, not "
             f"{'a list' if isinstance(node, list) else 'an object'}")
    if isinstance(node, list):
        for i, item in enumerate(value):
            if not (isinstance(node[0], Leaf) and node[0].ok(item)):
                check(item, node[0], f"{label}[{i}]", f"{path}[{i}]")
    elif isinstance(node, Map):
        label = node.entry or label
        for key, item in value.items():
            if node.ints and not _INT_KEY.fullmatch(key):
                fail(f"{label} key {key!r} is not an integer")
            if not (isinstance(node.value, Leaf) and node.value.ok(item)):
                check(item, node.value, f"{label} {key!r}", f"{path}.{key}")
    else:
        keys = {**node.required, **node.optional}
        rest = {k: v for k, v in value.items() if k not in keys}
        if rest and node.rest is None:
            fail(f"unknown {label} keys {sorted(rest)}")
        for key in node.required:
            if key not in value:
                fail(f"{label} without {key!r}")
        for key, item in value.items():
            child = keys.get(key, ANY)
            if not (isinstance(child, Leaf) and child.ok(item)):
                check(item, child, f"{label} {key!r}", f"{path}.{key}")
        check(rest, node.rest or ANY, label, path)
    return value
