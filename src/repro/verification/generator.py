"""Randomized workflow generation for differential verification.

The generator composes arbitrary DAGs from the same building blocks the
evaluation workloads use — the map/reduce function factories of
:mod:`repro.workloads.common` and the annotations of
:mod:`repro.workflow.annotations` — under a seeded
:class:`~repro.common.rng.DeterministicRNG`.  The same seed always yields the
same workflow *and* the same base datasets, so any divergence the
differential harness finds is reproducible from its seed alone.

Every generated job is drawn from a catalog of *order-insensitive* shapes
(sums, min/max/avg/count, distinct counts, sorted concatenation, identity
re-shuffles, projections, filters): MapReduce transformations preserve the
multiset of results but not intra-group value order, so reducers whose output
depends on value arrival order would flag false divergences.

Knobs (see :class:`GeneratorConfig`):

* ``min_jobs``/``max_jobs`` and ``max_depth`` control DAG size and depth;
* ``max_fanout`` and ``share_probability`` control how often several jobs
  read the same dataset (horizontal-packing opportunities);
* ``depth_bias`` controls how often a job consumes the newest dataset
  (vertical-packing chains);
* ``annotation_density`` controls the fraction of jobs keeping their schema
  annotations (absent annotations must disable transformations, never break
  correctness);
* ``profile`` runs the profiler so the What-if engine sees real statistics.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Tuple

from repro.common.rng import DeterministicRNG
from repro.core.plan import Plan
from repro.dfs.dataset import Dataset
from repro.mapreduce.config import JobConfig
from repro.mapreduce.job import MapReduceJob, simple_job
from repro.profiler.profiler import Profiler
from repro.workflow.annotations import FilterAnnotation, JobAnnotations, SchemaAnnotation
from repro.workflow.graph import Workflow
from repro.workloads import common

#: Fields every generated base-dataset record carries.
BASE_FIELDS: Tuple[str, ...] = ("k", "g", "x", "y", "n")


@dataclass(frozen=True)
class GeneratorConfig:
    """Tunable knobs of the random workflow generator."""

    min_jobs: int = 2
    max_jobs: int = 6
    #: Maximum chain length from a base dataset to any job's input.
    max_depth: int = 4
    #: Maximum number of consumer jobs per dataset.
    max_fanout: int = 3
    #: Probability that a job re-reads an already-consumed dataset
    #: (creating scan-sharing / horizontal-packing opportunities).
    share_probability: float = 0.35
    #: Probability that a chain-extending job consumes the newest dataset.
    depth_bias: float = 0.6
    #: Probability that any one job keeps its schema annotation.
    annotation_density: float = 1.0
    #: Probability that a reduce job carries a compatible combiner.
    combiner_probability: float = 0.5
    #: Probability that a map-side filter (plus filter annotation) is added.
    filter_probability: float = 0.3
    #: Number of base datasets to generate (inclusive bounds).
    min_base_datasets: int = 1
    max_base_datasets: int = 2
    #: Records per generated base dataset.
    records_per_dataset: int = 220
    #: Distinct values of the primary group key ``k``.
    num_groups: int = 12
    #: Whether to run the profiler (attaches profile + dataset annotations).
    profile: bool = True

    def __post_init__(self) -> None:
        if self.min_jobs < 1 or self.max_jobs < self.min_jobs:
            raise ValueError("need 1 <= min_jobs <= max_jobs")
        if self.min_base_datasets < 1 or self.max_base_datasets < self.min_base_datasets:
            raise ValueError("need 1 <= min_base_datasets <= max_base_datasets")
        if self.max_depth < 1 or self.max_fanout < 1:
            raise ValueError("max_depth and max_fanout must be positive")


@dataclass
class GeneratedWorkflow:
    """A generated workflow, its inputs, and the seed that reproduces it."""

    seed: int
    workflow: Workflow
    base_datasets: Dict[str, Dataset]
    config: GeneratorConfig = field(default_factory=GeneratorConfig)

    @property
    def plan(self) -> Plan:
        """A fresh plan over a copy of the workflow, ready for optimization."""
        return Plan(self.workflow.copy())


# One catalog entry builds a job reading ``input_name`` and writing
# ``output_name`` with the given rng, and returns (job, annotations).
_JobBuilder = Callable[[str, str, str, DeterministicRNG, GeneratorConfig], Tuple[MapReduceJob, JobAnnotations]]


class RandomWorkflowGenerator:
    """Seeded generator of random-but-valid annotated MapReduce workflows."""

    def __init__(self, config: Optional[GeneratorConfig] = None) -> None:
        self.config = config or GeneratorConfig()
        self._catalog: List[Tuple[str, _JobBuilder]] = [
            ("project", self._build_project),
            ("filter", self._build_filter),
            ("sum", self._build_sum),
            ("aggregate", self._build_aggregate),
            ("distinct", self._build_distinct),
            ("collect", self._build_collect),
            ("reshuffle", self._build_reshuffle),
        ]

    # ------------------------------------------------------------------ API
    def generate(self, seed: int) -> GeneratedWorkflow:
        """Generate the workflow for ``seed`` (same seed, same workflow)."""
        config = self.config
        rng = DeterministicRNG(seed)
        data_rng = rng.fork("data")
        structure_rng = rng.fork("structure")

        workflow = Workflow(name=f"rand-{seed}")
        base_datasets: Dict[str, Dataset] = {}
        num_base = structure_rng.randint(config.min_base_datasets, config.max_base_datasets)
        for index in range(num_base):
            name = f"rand{seed}_src{index}"
            base_datasets[name] = self._make_dataset(name, data_rng.fork(name))

        depth: Dict[str, int] = {name: 0 for name in base_datasets}
        consumers: Dict[str, int] = {name: 0 for name in base_datasets}

        num_jobs = structure_rng.randint(config.min_jobs, config.max_jobs)
        for index in range(num_jobs):
            input_name = self._pick_input(structure_rng, depth, consumers)
            output_name = f"rand{seed}_d{index}"
            kind, builder = structure_rng.choice(self._catalog)
            job, annotations = builder(
                f"R{seed}_J{index}", input_name, output_name, structure_rng.fork(f"job{index}"), config
            )
            if structure_rng.random() > config.annotation_density:
                annotations = JobAnnotations(filter=annotations.filter)
            workflow.add_job(job, annotations)
            consumers[input_name] = consumers.get(input_name, 0) + 1
            consumers.setdefault(output_name, 0)
            depth[output_name] = depth.get(input_name, 0) + 1

        return self._finalize(seed, workflow, base_datasets)

    def with_config(self, **overrides) -> "RandomWorkflowGenerator":
        """A generator whose config replaces the given fields."""
        return RandomWorkflowGenerator(replace(self.config, **overrides))

    def diamond_shared_sink(self, seed: int) -> GeneratedWorkflow:
        """A diamond fan-in feeding a shared-scan sink (fixed workload shape).

        Structure (all from the random catalog's building blocks, sized by
        ``seed``)::

                       src
                      /    \\
                (project)  (filter)      <- diamond branches share src's scan
                     |        |
                    d0        d1
                      \\      /
                     (fan-in sum)        <- one pipeline reading BOTH datasets
                          |
                          d2
                        /    \\
                (aggregate)  (distinct)  <- sink jobs share d2's scan

        The shape exercises exactly the corners the random DAGs rarely hit
        together: a multi-input pipeline (fan-in), two horizontal-packing
        opportunities at different depths, and vertical chains above and
        below the fan-in.  Profiled and validated like every generated
        workflow; the same seed always yields the same workflow and data.
        """
        config = self.config
        rng = DeterministicRNG(seed)
        data_rng = rng.fork("diamond-data")
        job_rng = rng.fork("diamond-jobs")

        workflow = Workflow(name=f"diamond-{seed}")
        src = f"diamond{seed}_src"
        base_datasets = {src: self._make_dataset(src, data_rng.fork(src))}

        branch_a, annotations_a = self._build_project(
            f"D{seed}_J0", src, f"diamond{seed}_d0", job_rng.fork("j0"), config
        )
        branch_b, annotations_b = self._build_filter(
            f"D{seed}_J1", src, f"diamond{seed}_d1", job_rng.fork("j1"), config
        )
        workflow.add_job(branch_a, annotations_a)
        workflow.add_job(branch_b, annotations_b)

        # The sum job's single pipeline reads both diamond branches: the map
        # keys by "k" either way, and summing is order-insensitive, so the
        # fan-in is a pure multiset union of the two inputs.
        fan_in, fan_in_annotations = self._build_sum(
            f"D{seed}_J2",
            (f"diamond{seed}_d0", f"diamond{seed}_d1"),
            f"diamond{seed}_d2",
            job_rng.fork("j2"),
            config,
        )
        workflow.add_job(fan_in, fan_in_annotations)

        sink_a, sink_a_annotations = self._build_aggregate(
            f"D{seed}_J3", f"diamond{seed}_d2", f"diamond{seed}_d3", job_rng.fork("j3"), config
        )
        sink_b, sink_b_annotations = self._build_distinct(
            f"D{seed}_J4", f"diamond{seed}_d2", f"diamond{seed}_d4", job_rng.fork("j4"), config
        )
        workflow.add_job(sink_a, sink_a_annotations)
        workflow.add_job(sink_b, sink_b_annotations)
        return self._finalize(seed, workflow, base_datasets)

    def wide_fanout(self, seed: int, num_jobs: int = 32) -> GeneratedWorkflow:
        """A telemetry-style wide fan-out: one source, ``num_jobs`` siblings.

        Every job reads the single base dataset (one per-channel extraction
        each, à la a telemetry server fanning one raw log into per-metric
        streams), so the whole workflow is one level of ``num_jobs``
        concurrently runnable jobs — the regime where brute-force topology
        scans cost O(jobs²) per costing query and the adjacency index must
        answer in O(jobs).  Shapes are drawn from the catalog entries whose
        outputs are independent (no job reads another's output).
        """
        if num_jobs < 1:
            raise ValueError("num_jobs must be positive")
        config = self.config
        rng = DeterministicRNG(seed)
        data_rng = rng.fork("fanout-data")
        job_rng = rng.fork("fanout-jobs")

        workflow = Workflow(name=f"fanout-{seed}-{num_jobs}")
        src = f"fanout{seed}_src"
        base_datasets = {src: self._make_dataset(src, data_rng.fork(src))}
        for index in range(num_jobs):
            kind, builder = job_rng.choice(self._catalog)
            job, annotations = builder(
                f"F{seed}_J{index}", src, f"fanout{seed}_d{index}",
                job_rng.fork(f"job{index}"), config,
            )
            workflow.add_job(job, annotations)
        return self._finalize(seed, workflow, base_datasets)

    def telemetry_rollup(
        self, seed: int, num_channels: int = 32, fanin: int = 8
    ) -> GeneratedWorkflow:
        """Wide fan-out into staged fan-in: channels → rollups → one total.

        Structure (telemetry-pipeline shaped)::

                                src
                 /      /       |        \\      \\
               (ch0)  (ch1)   (ch2)  ...  (chN-1)     <- per-channel extraction
                 |      |       |          |
                 d0     d1      d2   ...   dN-1
                  \\_____|______/ ... \\____/
                   (rollup0)    ...   (rollupM)       <- one per ``fanin`` channels
                       \\______________/
                           (total)                    <- grand rollup (fan-in M)

        ``num_channels`` parallel channel jobs (catalog shapes whose outputs
        keep the ``k``/``x`` fields flowing), ``ceil(num_channels/fanin)``
        multi-input rollup sums, and one grand total — wide levels *and*
        many-to-one fan-in, the two shapes that break quadratic graph scans
        first.  Total jobs: ``num_channels + ceil(num_channels/fanin) + 1``
        (the grand total is skipped when only one rollup exists).
        """
        if num_channels < 1 or fanin < 1:
            raise ValueError("num_channels and fanin must be positive")
        config = self.config
        rng = DeterministicRNG(seed)
        data_rng = rng.fork("telemetry-data")
        job_rng = rng.fork("telemetry-jobs")

        workflow = Workflow(name=f"telemetry-{seed}-{num_channels}")
        src = f"telemetry{seed}_src"
        base_datasets = {src: self._make_dataset(src, data_rng.fork(src))}

        # Channel shapes must keep "k" and "x" flowing for the rollup sums.
        channel_builders = (self._build_project, self._build_filter, self._build_sum)
        channel_outputs: List[str] = []
        for index in range(num_channels):
            builder = job_rng.choice(channel_builders)
            output = f"telemetry{seed}_ch{index}"
            job, annotations = builder(
                f"T{seed}_C{index}", src, output, job_rng.fork(f"ch{index}"), config
            )
            workflow.add_job(job, annotations)
            channel_outputs.append(output)

        rollup_outputs: List[str] = []
        for index, start in enumerate(range(0, num_channels, fanin)):
            group = channel_outputs[start : start + fanin]
            output = f"telemetry{seed}_roll{index}"
            job, annotations = self._build_sum(
                f"T{seed}_R{index}", tuple(group), output, job_rng.fork(f"roll{index}"), config
            )
            workflow.add_job(job, annotations)
            rollup_outputs.append(output)

        if len(rollup_outputs) > 1:
            total, total_annotations = self._build_sum(
                f"T{seed}_TOTAL", tuple(rollup_outputs), f"telemetry{seed}_total",
                job_rng.fork("total"), config,
            )
            workflow.add_job(total, total_annotations)
        return self._finalize(seed, workflow, base_datasets)

    def shared_prefix_pair(
        self, seed: int
    ) -> Tuple[GeneratedWorkflow, GeneratedWorkflow]:
        """Two workflows with byte-identical producing prefixes, different tails.

        Structure (both workflows, over identical base data)::

                 src ──(J0 project)── p0 ──(J1 sum)── p1 ──┬── tail
                                                           │
              workflow A tail: (aggregate) → a_out         │
              workflow B tail: (distinct)  → b_out  +  (collect) → b_out2

        The prefix jobs, their configurations, and the base records are
        regenerated from the same seeded forks for both workflows, so the
        producing subgraphs of ``p0`` and ``p1`` have **equal content
        signatures** across the pair — executing one workflow and
        registering its intermediates in a
        :class:`~repro.core.subresults.SubResultCatalog` makes the other's
        prefix reusable (a cross-workflow hit).  This is the shape the
        reuse equivalence sweep and its three-wave traffic test lean on;
        everything the differential battery needs (profiles, annotations,
        validation) is attached as usual.
        """
        first = self._shared_prefix_workflow(seed, variant="a")
        second = self._shared_prefix_workflow(seed, variant="b")
        return first, second

    def _shared_prefix_workflow(self, seed: int, variant: str) -> GeneratedWorkflow:
        """One member of :meth:`shared_prefix_pair` (``variant``: "a"/"b").

        The prefix is rebuilt from identical rng forks for every variant —
        same job names, same costs, same configs, same base records — so its
        content signature is variant-independent by construction.
        """
        config = self.config
        rng = DeterministicRNG(seed)
        data_rng = rng.fork("shared-data")
        prefix_rng = rng.fork("shared-prefix")
        tail_rng = rng.fork(f"shared-tail-{variant}")

        workflow = Workflow(name=f"shared{variant.upper()}-{seed}")
        src = f"shared{seed}_src"
        base_datasets = {src: self._make_dataset(src, data_rng.fork(src))}

        p0, p1 = f"shared{seed}_p0", f"shared{seed}_p1"
        head, head_annotations = self._build_project(
            f"S{seed}_J0", src, p0, prefix_rng.fork("j0"), config
        )
        mid, mid_annotations = self._build_sum(
            f"S{seed}_J1", p0, p1, prefix_rng.fork("j1"), config
        )
        workflow.add_job(head, head_annotations)
        workflow.add_job(mid, mid_annotations)

        if variant == "a":
            tail, tail_annotations = self._build_aggregate(
                f"S{seed}_A0", p1, f"shared{seed}_aout", tail_rng.fork("a0"), config
            )
            workflow.add_job(tail, tail_annotations)
        else:
            tail, tail_annotations = self._build_distinct(
                f"S{seed}_B0", p1, f"shared{seed}_bout", tail_rng.fork("b0"), config
            )
            other, other_annotations = self._build_collect(
                f"S{seed}_B1", p1, f"shared{seed}_bout2", tail_rng.fork("b1"), config
            )
            workflow.add_job(tail, tail_annotations)
            workflow.add_job(other, other_annotations)
        return self._finalize(seed, workflow, base_datasets)

    def _finalize(
        self, seed: int, workflow: Workflow, base_datasets: Dict[str, Dataset]
    ) -> GeneratedWorkflow:
        """Attach base data, profile (if configured), validate, and wrap."""
        profiler = Profiler()
        for name, dataset in base_datasets.items():
            workflow.add_dataset(name, dataset=dataset, annotation=profiler.annotate_dataset(dataset))
        if self.config.profile:
            profiler.profile_workflow(workflow, base_datasets)
        workflow.validate()
        return GeneratedWorkflow(
            seed=seed, workflow=workflow, base_datasets=base_datasets, config=self.config
        )

    # ----------------------------------------------------------- DAG shaping
    def _pick_input(
        self,
        rng: DeterministicRNG,
        depth: Dict[str, int],
        consumers: Dict[str, int],
    ) -> str:
        """Pick the dataset the next job reads, honoring depth/fan-out caps."""
        config = self.config
        names = list(depth)
        shallow = [n for n in names if depth[n] < config.max_depth]
        candidates = shallow or names
        consumed = [n for n in candidates if consumers.get(n, 0) > 0]
        sharable = [n for n in consumed if consumers.get(n, 0) < config.max_fanout]
        if sharable and rng.random() < config.share_probability:
            return rng.choice(sharable)
        fresh = [n for n in candidates if consumers.get(n, 0) == 0]
        if fresh:
            if rng.random() < config.depth_bias:
                return fresh[-1]  # the newest unconsumed dataset -> deep chains
            return rng.choice(fresh)
        open_candidates = [n for n in candidates if consumers.get(n, 0) < config.max_fanout]
        return rng.choice(open_candidates or candidates)

    # ------------------------------------------------------------- datasets
    def _make_dataset(self, name: str, rng: DeterministicRNG) -> Dataset:
        records = []
        for _ in range(self.config.records_per_dataset):
            records.append(
                {
                    "k": f"k{rng.randint(0, self.config.num_groups - 1):02d}",
                    "g": rng.randint(0, 9),
                    "x": round(rng.uniform(0.0, 100.0), 6),
                    "y": round(rng.gauss(50.0, 20.0), 6),
                    "n": 1.0,
                }
            )
        return Dataset(name, records=records)

    # ------------------------------------------------------------ job shapes
    # Every builder keeps field names flowing unchanged where the paper's
    # conventions require it (identical names across K2/K3 signal data that
    # flows through the reduce unchanged), which is what makes the packing
    # transformations applicable to generated workflows.

    @staticmethod
    def _build_project(
        name: str, input_name: str, output_name: str, rng: DeterministicRNG, config: GeneratorConfig
    ) -> Tuple[MapReduceJob, JobAnnotations]:
        value_fields = ("g", "x", "y", "n")
        job = simple_job(
            name=name,
            input_dataset=input_name,
            output_dataset=output_name,
            map_fn=common.key_by(("k",), value_fields=value_fields),
            map_cpu_cost=1.0 + rng.random(),
        )
        annotations = JobAnnotations(
            schema=SchemaAnnotation.of(
                k1=(), v1=BASE_FIELDS, k2=("k",), v2=value_fields, k3=("k",), v3=value_fields
            )
        )
        return job, annotations

    @staticmethod
    def _build_filter(
        name: str, input_name: str, output_name: str, rng: DeterministicRNG, config: GeneratorConfig
    ) -> Tuple[MapReduceJob, JobAnnotations]:
        low = round(rng.uniform(0.0, 40.0), 3)
        high = round(low + rng.uniform(20.0, 60.0), 3)
        value_fields = ("g", "x", "y", "n")
        job = simple_job(
            name=name,
            input_dataset=input_name,
            output_dataset=output_name,
            map_fn=common.key_by(
                ("k",), value_fields=value_fields, filter_fn=common.range_filter("x", low, high)
            ),
            map_cpu_cost=1.0 + rng.random(),
        )
        annotations = JobAnnotations(
            schema=SchemaAnnotation.of(
                k1=(), v1=BASE_FIELDS, k2=("k",), v2=value_fields, k3=("k",), v3=value_fields
            ),
            filter=FilterAnnotation.of(x=(low, high)),
        )
        return job, annotations

    @staticmethod
    def _build_sum(
        name: str, input_name, output_name: str, rng: DeterministicRNG, config: GeneratorConfig
    ) -> Tuple[MapReduceJob, JobAnnotations]:
        """``input_name`` is one dataset name or a tuple of them (fan-in)."""
        combiner = common.sum_combiner("x") if rng.random() < config.combiner_probability else None
        job = simple_job(
            name=name,
            input_dataset=input_name,
            output_dataset=output_name,
            map_fn=common.key_by(("k",), value_fields=("x",), add_counter="n"),
            reduce_fn=common.sum_reduce("x", "x"),
            group_fields=("k",),
            combiner=combiner,
            reduce_cpu_cost=1.0 + rng.random(),
            config=JobConfig(num_reduce_tasks=rng.randint(1, 8)),
        )
        annotations = JobAnnotations(
            schema=SchemaAnnotation.of(
                k1=(), v1=BASE_FIELDS, k2=("k",), v2=("x", "n"), k3=("k",), v3=("x",)
            )
        )
        return job, annotations

    @staticmethod
    def _build_aggregate(
        name: str, input_name: str, output_name: str, rng: DeterministicRNG, config: GeneratorConfig
    ) -> Tuple[MapReduceJob, JobAnnotations]:
        group = rng.choice((("k",), ("g",), ("k", "g")))
        value_fields = ("x", "y")
        job = simple_job(
            name=name,
            input_dataset=input_name,
            output_dataset=output_name,
            map_fn=common.key_by(group, value_fields=value_fields),
            reduce_fn=common.aggregate_reduce(
                {"x": ("avg", "x"), "y": ("max", "y"), "n": ("count", "x")}
            ),
            group_fields=group,
            reduce_cpu_cost=1.0 + rng.random(),
            config=JobConfig(num_reduce_tasks=rng.randint(1, 8)),
        )
        annotations = JobAnnotations(
            schema=SchemaAnnotation.of(
                k1=(), v1=BASE_FIELDS, k2=group, v2=value_fields, k3=group, v3=("x", "y", "n")
            )
        )
        return job, annotations

    @staticmethod
    def _build_distinct(
        name: str, input_name: str, output_name: str, rng: DeterministicRNG, config: GeneratorConfig
    ) -> Tuple[MapReduceJob, JobAnnotations]:
        job = simple_job(
            name=name,
            input_dataset=input_name,
            output_dataset=output_name,
            map_fn=common.key_by(("k",), value_fields=("g",)),
            reduce_fn=common.distinct_count_reduce("g", "g"),
            group_fields=("k",),
            reduce_cpu_cost=1.0 + rng.random(),
            config=JobConfig(num_reduce_tasks=rng.randint(1, 4)),
        )
        annotations = JobAnnotations(
            schema=SchemaAnnotation.of(
                k1=(), v1=BASE_FIELDS, k2=("k",), v2=("g",), k3=("k",), v3=("g",)
            )
        )
        return job, annotations

    @staticmethod
    def _build_collect(
        name: str, input_name: str, output_name: str, rng: DeterministicRNG, config: GeneratorConfig
    ) -> Tuple[MapReduceJob, JobAnnotations]:
        job = simple_job(
            name=name,
            input_dataset=input_name,
            output_dataset=output_name,
            map_fn=common.key_by(("g",), value_fields=("k",)),
            reduce_fn=common.collect_reduce("k", "k"),
            group_fields=("g",),
            reduce_cpu_cost=1.0 + rng.random(),
            config=JobConfig(num_reduce_tasks=rng.randint(1, 4)),
        )
        annotations = JobAnnotations(
            schema=SchemaAnnotation.of(
                k1=(), v1=BASE_FIELDS, k2=("g",), v2=("k",), k3=("g",), v3=("k",)
            )
        )
        return job, annotations

    @staticmethod
    def _build_reshuffle(
        name: str, input_name: str, output_name: str, rng: DeterministicRNG, config: GeneratorConfig
    ) -> Tuple[MapReduceJob, JobAnnotations]:
        value_fields = ("x", "y", "n")
        job = simple_job(
            name=name,
            input_dataset=input_name,
            output_dataset=output_name,
            map_fn=common.key_by(("k", "g"), value_fields=value_fields),
            reduce_fn=common.identity_reduce(),
            group_fields=("k", "g"),
            reduce_cpu_cost=1.0 + rng.random(),
            config=JobConfig(num_reduce_tasks=rng.randint(1, 8)),
        )
        annotations = JobAnnotations(
            schema=SchemaAnnotation.of(
                k1=(),
                v1=BASE_FIELDS,
                k2=("k", "g"),
                v2=value_fields,
                k3=("k", "g"),
                v3=value_fields,
            )
        )
        return job, annotations
