"""Reference implementation of optimization-unit generation.

The generator as it walked the graph at every unit: ``next_unit`` asks the
workflow for each unhandled job's producer jobs and each producer's consumer
jobs, ``independent_subunits`` splits every unit through a union-find over
the datasets its jobs touch, and ``mark_handled`` rebuilds the handled set.
:class:`repro.core.optimization_unit.OptimizationUnitGenerator` answers from
the workflow's job adjacency table instead; ``tests/test_unit_generation.py``
compares the two unit for unit, split for split and handled set for handled
set.
"""

from __future__ import annotations

from typing import Dict, List, Set

from repro.core.optimization_unit import OptimizationUnit
from repro.core.plan import Plan


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
