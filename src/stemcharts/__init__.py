"""stemcharts: exact-arithmetic charts of motivic stable stems.

Computes Adams-Novikov Ext charts from formal-group-law Hopf algebroids,
Milnor-Witt K-theory of catalogued fields, constructive decompositions of
torsion F_p[[t]]-modules, and combines them through the tensor-product
formula into bigraded stable-stem charts.
"""

from .cache import ENGINE_VERSION
from .charts import (AbGroupDesc, BigradedChart, INF, chart_shift, chart_sum,
                     charts_same_groups, chow_degree, chow_weight,
                     complete_chart, complete_desc, custom_weight, cyclic,
                     fd_weight, free_group, is_superadditive, truncate_chart)
from .fgl import (FormalGroupLaw, GradedRingPresentation, additive_fgl,
                  fgl_exp, fgl_inverse, fgl_log, multiplicative_fgl,
                  p_typical_reduction, universal_fgl)
from .hopf import HopfAlgebroid, HopfAxiomError, build_algebroid
from .cobar import CobarComplex, CobarError, EngineError
from .extcharts import ExtChart, PrecisionExhausted, ext_chart
from .fields import (FieldDescriptor, FieldError, WittData,
                     algebraically_closed, complex_like, finite_field,
                     km_mod_p, milnor_k, real_closed, witt_data)
from .kmw import (KMWChart, NotFreeError, complete_kmw, completed_milnor_witt,
                  fiber_product_order_check, free_basis, milnor_witt)
from .fpt import (Decomposition, FptModule, IndFptModule, Splitting,
                  check_torsion_powers, check_u_sequence, classify_divisible,
                  decompose, extract_free, jordan_module, jordan_type,
                  reassemble, satisfies_pn)
from .stems import (Box, PreconditionError, SyntheticChart, anss_e1,
                    degeneration_range, mgl_homotopy, morel_zero_line,
                    synthetic_stems, tensor_formula)
from .catalog import default_catalog, get_field, load_catalog
from .render import render_svg, render_text

__version__ = ENGINE_VERSION
