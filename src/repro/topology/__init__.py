"""DDC topology: bricks, single-resource boxes, racks, cluster.

Build a cluster from a :class:`~repro.config.ClusterSpec` with
:func:`build_cluster`; all capacity accounting is integer *units* (Table 1
quantization) with conservation enforced at every level.
"""

from .box import Box, BoxAllocation
from .brick import Brick
from .builder import build_cluster, prime_availability
from .capacity_index import CapacityIndex, MaxSegmentTree
from .cluster import Cluster
from .defrag import Migration, MigrationPlan, apply_plan, plan_rack_defrag
from .rack import Rack

__all__ = [
    "Box",
    "BoxAllocation",
    "Brick",
    "CapacityIndex",
    "Cluster",
    "MaxSegmentTree",
    "Migration",
    "MigrationPlan",
    "apply_plan",
    "plan_rack_defrag",
    "Rack",
    "build_cluster",
    "prime_availability",
]
