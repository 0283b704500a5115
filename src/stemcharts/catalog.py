"""The field catalog: built-in descriptors plus JSON catalog files.

Catalog file schema: {"fields": {name: descriptor}} with one descriptor
per variant (see `default_catalog` for an example of each).  Custom tables
use the chart JSON group schema ({"free_rank": r, "torsion": [...], ...}).
"""

from __future__ import annotations

from .charts import INF
from .fields import (FieldDescriptor, FieldError, algebraically_closed,
                     complex_like, finite_field, real_closed)


def default_catalog() -> dict[str, FieldDescriptor]:
    fields: dict[str, FieldDescriptor] = {
        "complex": complex_like(),
        "real_closed": real_closed(),
        "algclosed_char0": algebraically_closed(0),
        "algclosed_char7": algebraically_closed(7),
    }
    for q in (3, 4, 5, 7, 9, 25, 49):
        fields[f"F{q}"] = finite_field(q)
    # cyclotomic tower over F7 at p = 3: the K-theory of the colimit is
    # supplied as data (units become 3-divisible up the tower), together
    # with a small declared Galois-module handle for the fpt pipeline
    fields["F7_cyclo3"] = FieldDescriptor(
        variant="cyclotomic_tower", name="F7_cyclo3", base_name="F7",
        tower_prime=3, char=7,
        km_table=(
            (0, (("free_rank", 1), ("torsion", ()))),
            (1, (("divisible", True), ("free_rank", 0), ("torsion", ()))),
        ),
        witt_table=(
            ("GW", (("free_rank", 1), ("torsion", (2,)))),
            ("W", (("free_rank", 0), ("torsion", (2, 2)))),
            ("I", ((1, (("free_rank", 0), ("torsion", (2,)))),)),
            ("k", ((0, (("free_rank", 0), ("torsion", (2,)))),
                   (1, (("free_rank", 0), ("torsion", (2,)))))),
        ),
        km_mod_p_dims=((3, ((0, 1),)),),
        galois_modules=(
            (3, ((1, (("stable_from", 0),
                      ("modules", ((("p", 3), ("dim", 1), ("t", (0,))),
                                   (("p", 3), ("dim", 3),
                                    ("t", (0, 0, 0, 1, 0, 0, 0, 1, 0))))),
                      ("maps", (((0,), (0,), (1,)),)))),)),
        ),
    )
    # Tate-orientable custom field whose completed Milnor-Witt chart is
    # free on two generators in shifts {0, -1} (a unit-class generator in
    # K^M_1 survives completion at every prime)
    z = (("free_rank", 1), ("torsion", ()))
    fields["twogen"] = FieldDescriptor(
        variant="custom", name="twogen", char=0,
        roots=((2, INF), (3, INF), (5, INF)),
        km_table=((0, z), (1, z)),
        kmw_table=((0, (("free_rank", 1), ("torsion", (2,)))), (1, z)),
        witt_table=(
            ("GW", (("free_rank", 1), ("torsion", (2,)))),
            ("W", (("free_rank", 0), ("torsion", (2, 2)))),
            ("I", ((1, (("free_rank", 0), ("torsion", (2,)))),)),
            ("k", ((0, (("free_rank", 0), ("torsion", (2,)))),
                   (1, (("free_rank", 0), ("torsion", (2,)))))),
        ),
    )
    return fields


def load_catalog(data: dict | None = None) -> dict[str, FieldDescriptor]:
    """The built-in fields, plus those of `data` (a parsed catalog file).

    A malformed descriptor, custom tables included, raises KeyError,
    TypeError or ValueError here, when the catalog is loaded.
    """
    fields = default_catalog()
    if data is not None:
        for name, obj in data.get("fields", {}).items():
            fd = FieldDescriptor.from_json(obj)
            if not fd.name:
                fd = FieldDescriptor(**{**fd.__dict__, "name": name})
            fields[name] = fd
    return fields


def catalog_to_json(fields: dict[str, FieldDescriptor]) -> dict:
    return {"fields": {name: fd.to_json() for name, fd in sorted(fields.items())}}


def get_field(name: str, fields: dict[str, FieldDescriptor] | None = None
              ) -> FieldDescriptor:
    """The field `name` of a loaded catalog (default: the built-in one)."""
    fields = load_catalog() if fields is None else fields
    if name not in fields:
        raise FieldError(
            f"unknown field {name!r}; available: {', '.join(sorted(fields))}")
    return fields[name]
