"""The field catalog: built-in descriptors plus JSON catalog files.

Catalog file schema: {"fields": {name: descriptor}} with one descriptor
per variant (see `default_catalog` for an example of each).  Custom tables
use the chart JSON group schema ({"free_rank": r, "torsion": [...], ...}),
and `catalog_to_json` writes the schema that `load_catalog` reads.
"""

from __future__ import annotations

from dataclasses import replace

from .charts import INF, AbGroupDesc, cyclic, free_group
from .fields import (FieldDescriptor, FieldError, WittData,
                     algebraically_closed, complex_like, finite_field,
                     real_closed)
from .schema import CATALOG, check


def default_catalog() -> dict[str, FieldDescriptor]:
    fields: dict[str, FieldDescriptor] = {
        "complex": complex_like(),
        "real_closed": real_closed(),
        "algclosed_char0": algebraically_closed(0),
        "algclosed_char7": algebraically_closed(7),
    }
    for q in (3, 4, 5, 7, 9, 25, 49):
        fields[f"F{q}"] = finite_field(q)
    # both custom fields share the Witt data of F_q with q = 1 mod 4
    witt = WittData(gw=AbGroupDesc(free_rank=1, torsion=(2,)),
                    w=AbGroupDesc(torsion=(2, 2)), fundamental={1: cyclic(2)},
                    km_mod2={0: cyclic(2), 1: cyclic(2)})
    # cyclotomic tower over F7 at p = 3: the K-theory of the colimit is
    # supplied as data (units become 3-divisible up the tower)
    fields["F7_cyclo3"] = FieldDescriptor(
        variant="cyclotomic_tower", name="F7_cyclo3", base_name="F7",
        tower_prime=3, char=7,
        km_table={0: free_group(1), 1: AbGroupDesc(divisible=True)},
        witt_table=witt,
        km_mod_p_dims={3: {0: 1}},
    )
    # Tate-orientable custom field whose completed Milnor-Witt chart is
    # free on two generators in shifts {0, -1} (a unit-class generator in
    # K^M_1 survives completion at every prime)
    fields["twogen"] = FieldDescriptor(
        variant="custom", name="twogen", char=0,
        roots={2: INF, 3: INF, 5: INF},
        km_table={0: free_group(1), 1: free_group(1)},
        kmw_table={0: AbGroupDesc(free_rank=1, torsion=(2,)), 1: free_group(1)},
        witt_table=witt,
    )
    return fields


def load_catalog(data: dict) -> dict[str, FieldDescriptor]:
    """The built-in fields, plus those of `data` (a parsed catalog file).

    A catalog off `schema.CATALOG` raises a SchemaError, and a descriptor
    that fails a value check (a torsion order or a finite q that is not a
    prime power) raises ValueError or FieldError, here, when it is loaded.
    """
    fields = default_catalog()
    for name, obj in check(data, CATALOG).get("fields", {}).items():
        fd = FieldDescriptor.from_json(obj)
        fields[name] = fd if fd.name else replace(fd, name=name)
    return fields


def catalog_to_json(fields: dict[str, FieldDescriptor]) -> dict:
    return {"fields": {name: fd.to_json() for name, fd in sorted(fields.items())}}


def get_field(name: str, fields: dict[str, FieldDescriptor] | None = None
              ) -> FieldDescriptor:
    """The field `name` of a loaded catalog (default: the built-in one)."""
    fields = default_catalog() if fields is None else fields
    if name not in fields:
        raise FieldError(
            f"unknown field {name!r}; available: {', '.join(sorted(fields))}")
    return fields[name]
