"""Workload and dataset generators for the paper's experiments."""

from .datasets import (
    DATASET_MAX_EDGE,
    PAPER_DATASET_SIZE,
    skewed_insert_center,
    skewed_insert_rect,
    uniform_dataset,
)
from .mixes import (
    INSERT_ID_BASE,
    WORKLOAD_KINDS,
    make_workload,
    query_stream,
    search_stream,
    write_mix,
)
from .skew import (
    HotspotQueries,
    ZipfSampler,
    zipf_sample,
    zipf_weights,
)
from .rea02 import (
    REA02_SIZE,
    SUBREGION_OBJECTS,
    generate_rea02,
    generate_rea02_queries,
)
from .scales import (
    POWER_LAW_ALPHA,
    SCALE_LARGE,
    SCALE_SMALL,
    FixedScale,
    PowerLawScale,
    power_law_sample,
    scale_generator,
    uniform_scale_rect,
)

__all__ = [
    "DATASET_MAX_EDGE",
    "PAPER_DATASET_SIZE",
    "skewed_insert_center",
    "skewed_insert_rect",
    "uniform_dataset",
    "INSERT_ID_BASE",
    "WORKLOAD_KINDS",
    "make_workload",
    "query_stream",
    "search_stream",
    "write_mix",
    "HotspotQueries",
    "ZipfSampler",
    "zipf_sample",
    "zipf_weights",
    "REA02_SIZE",
    "SUBREGION_OBJECTS",
    "generate_rea02",
    "generate_rea02_queries",
    "POWER_LAW_ALPHA",
    "SCALE_LARGE",
    "SCALE_SMALL",
    "FixedScale",
    "PowerLawScale",
    "power_law_sample",
    "scale_generator",
    "uniform_scale_rect",
]
