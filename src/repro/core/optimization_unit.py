"""Dynamic generation of optimization units (paper §4.1).

An optimization unit brings together a set of related decisions that affect
each other but are independent of decisions made at other units: it consists
of a set of concurrently runnable *producer* jobs plus their direct
*consumer* jobs.  Units are generated dynamically while traversing the
workflow graph in topological order, because transformations applied inside a
unit can change the graph (Figure 9: after J3 and J4 are packed into J4', the
next unit is built around J4').

The generator below maintains the set of job names that have already served
as producers ("handled").  At each step the next unit's producers are the
jobs all of whose upstream jobs are handled; a job created by merging a
producer with its consumer is *not* handled, so it becomes a producer of a
later unit — exactly the dynamic behaviour of Figure 9.

Each :meth:`OptimizationUnitGenerator.next_unit` call walks the topological
order and the producer/consumer adjacency of every unhandled job; both are
answered from the workflow's topology index (cached order, O(1) adjacency,
rebuilt in one O(jobs + edges) pass after a transformation moves an edge —
see :mod:`repro.workflow.graph`), so unit generation over a whole run is
O(units · (jobs + edges)) instead of the O(jobs³) the brute-force scans
cost on wide DAGs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Set, Tuple

from repro.core.plan import Plan


@dataclass(frozen=True)
class OptimizationUnit:
    """One optimization unit: producer jobs and their direct consumers."""

    producers: Tuple[str, ...]
    consumers: Tuple[str, ...]

    @property
    def jobs(self) -> Tuple[str, ...]:
        """All job names in the unit (producers first, then consumers)."""
        seen = set()
        ordered: List[str] = []
        for name in self.producers + self.consumers:
            if name not in seen:
                seen.add(name)
                ordered.append(name)
        return tuple(ordered)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"U(producers={list(self.producers)}, consumers={list(self.consumers)})"


class OptimizationUnitGenerator:
    """Generates optimization units dynamically as the plan evolves.

    Usage::

        generator = OptimizationUnitGenerator()
        unit = generator.next_unit(plan)
        while unit is not None:
            plan = optimize_unit_somehow(plan, unit)
            generator.mark_handled(plan, unit)
            unit = generator.next_unit(plan)
    """

    def __init__(self) -> None:
        self._handled: Set[str] = set()

    @property
    def handled(self) -> Set[str]:
        """Names of jobs that have already served as unit producers."""
        return set(self._handled)

    def next_unit(self, plan: Plan) -> "OptimizationUnit | None":
        """The next optimization unit of ``plan``, or ``None`` when done."""
        workflow = plan.workflow
        producers: List[str] = []
        for vertex in workflow.topological_order():
            if vertex.name in self._handled:
                continue
            upstream = workflow.producer_jobs(vertex.name)
            if all(up.name in self._handled for up in upstream):
                producers.append(vertex.name)
        if not producers:
            return None
        consumers: List[str] = []
        for producer_name in producers:
            for consumer in workflow.consumer_jobs(producer_name):
                if consumer.name not in consumers and consumer.name not in producers:
                    consumers.append(consumer.name)
        return OptimizationUnit(producers=tuple(producers), consumers=tuple(consumers))

    def independent_subunits(self, plan: Plan, unit: OptimizationUnit) -> List[OptimizationUnit]:
        """Split a unit into sub-units that share no workflow vertices.

        Two jobs of the unit belong to the same sub-unit when they touch a
        common dataset vertex (one reads what the other writes, or they read
        the same input).  Every transformation's applications span jobs
        connected through datasets — vertical packing follows produce/consume
        edges, horizontal packing requires a shared input — so the candidate
        subplans of different sub-units rewrite disjoint parts of the
        workflow graph and can be enumerated, costed, and chosen
        independently; the search enumerates each on its own and composes
        the chosen rewrites afterwards (see ``docs/search.md``).

        Sub-units are returned in a deterministic order (by each sub-unit's
        first producer in the original unit's producer order), which the
        composition step relies on for placement-independent results.
        """
        workflow = plan.workflow
        jobs = list(unit.jobs)
        parent: Dict[str, str] = {name: name for name in jobs}

        def find(name: str) -> str:
            while parent[name] != name:
                parent[name] = parent[parent[name]]
                name = parent[name]
            return name

        def union(a: str, b: str) -> None:
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[rb] = ra

        touched: Dict[str, str] = {}
        for name in jobs:
            job = workflow.job(name).job
            for dataset in list(job.input_datasets) + list(job.output_datasets):
                if dataset in touched:
                    union(touched[dataset], name)
                else:
                    touched[dataset] = name

        groups: Dict[str, List[str]] = {}
        for name in jobs:
            groups.setdefault(find(name), []).append(name)

        producer_set = set(unit.producers)
        subunits: List[OptimizationUnit] = []
        for members in groups.values():
            member_set = set(members)
            producers = tuple(n for n in unit.producers if n in member_set)
            consumers = tuple(n for n in unit.consumers if n in member_set)
            if not producers:
                # A consumer group with no producer cannot arise: every
                # consumer shares its input dataset with a unit producer.
                producers = tuple(n for n in members if n not in producer_set)
            subunits.append(OptimizationUnit(producers=producers, consumers=consumers))
        order = {name: index for index, name in enumerate(unit.jobs)}
        subunits.sort(key=lambda sub: min(order[n] for n in sub.jobs))
        return subunits

    def mark_handled(self, plan: Plan, unit: OptimizationUnit) -> None:
        """Record which of the unit's producers still exist and are now handled.

        Producers that were merged away (their name no longer exists in the
        plan) are dropped; merged jobs keep their new names un-handled so they
        become producers of a later unit.
        """
        workflow = plan.workflow
        for name in unit.producers:
            if workflow.has_job(name):
                self._handled.add(name)
        # Drop handled names that no longer exist to keep the set tidy.
        self._handled = {name for name in self._handled if workflow.has_job(name)}
