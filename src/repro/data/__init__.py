"""``repro.data`` — group-buying datasets and sampling.

Provides the data substrate the paper's experiments need: a synthetic
Beibei-style generator (the real dump is proprietary — see
:mod:`repro.data.synthetic` for the substitution argument), the Sec.
III-A2 preprocessing filter, task
A/B positive-sample extraction, the three negative samplers, 7:3:1
splits, batch iterators, the Beibei text loader and Table-I statistics.
"""

from repro.data.batching import iter_task_a_batches, iter_task_b_batches, n_batches
from repro.data.loaders import (
    load_groups_txt,
    parse_group_line,
    read_groups_txt,
    write_groups_txt,
)
from repro.data.negative import NegativeSampler
from repro.data.preprocess import FilteredData, filter_min_interactions, remap_ids
from repro.data.samples import TaskASamples, TaskBSamples, extract_task_a, extract_task_b
from repro.data.schema import DealGroup, GroupBuyingDataset
from repro.data.split import split_groups
from repro.data.statistics import DatasetStatistics, compute_statistics, format_table1
from repro.data.synthetic import (
    SyntheticConfig,
    SyntheticWorld,
    generate_dataset,
    generate_world,
)

__all__ = [
    "DealGroup",
    "GroupBuyingDataset",
    "SyntheticConfig",
    "SyntheticWorld",
    "generate_dataset",
    "generate_world",
    "filter_min_interactions",
    "remap_ids",
    "FilteredData",
    "extract_task_a",
    "extract_task_b",
    "TaskASamples",
    "TaskBSamples",
    "NegativeSampler",
    "split_groups",
    "iter_task_a_batches",
    "iter_task_b_batches",
    "n_batches",
    "load_groups_txt",
    "read_groups_txt",
    "parse_group_line",
    "write_groups_txt",
    "DatasetStatistics",
    "compute_statistics",
    "format_table1",
]
