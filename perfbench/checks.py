"""Output checks for one benchmark cell.

A cell fails when it raised, when its canonical (timing-free) output holds a
non-finite number, an audit witness or a disagreement, when the exhaustive
audit did not check every graph, when a sample's induced matching exceeds its
matching, or when the sha256 of its canonical output differs from the
reference pinned in ``references.json``.
"""

from __future__ import annotations

import hashlib
import json
import os

from workloads import EXHAUSTIVE_GRAPHS

REFERENCES = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          "references.json")

# Audit cells whose estimate counts violations or disagreements.
AUDIT_CELL_IDS = ("exhaustive_disagreements", "random_disagreements",
                  "vertex_deletion_violations", "additivity_violations")


def load_references() -> dict:
    with open(REFERENCES) as fh:
        return json.load(fh)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _reject_constant(name):
    raise ValueError(f"non-finite number {name}")


def content_problems(cell: dict, canonical: str) -> list[str]:
    """Problems visible in a cell's canonical output, without a reference."""
    try:
        obj = json.loads(canonical, parse_constant=_reject_constant)
    except ValueError as exc:
        return [str(exc)]
    problems = []
    if "matching" in cell:
        # An induced matching is a matching: nu_induced <= nu on each sample.
        bad = sum(1 for induced, nu in obj if induced > nu)
        if bad:
            problems.append(f"{bad} samples with induced matching > matching")
        return problems
    if obj["witnesses"]:
        problems.append(f"{len(obj['witnesses'])} audit witnesses")
    for c in obj["cells"]:
        if c["cell_id"] in AUDIT_CELL_IDS and c["estimate"] != 0.0:
            problems.append(f"{c['cell_id']} = {c['estimate']}")
        if (c["cell_id"] == "exhaustive_disagreements"
                and c["trials"] != EXHAUSTIVE_GRAPHS):
            problems.append(f"exhaustive audit checked {c['trials']} "
                            f"graphs, expected {EXHAUSTIVE_GRAPHS}")
    return problems


def cell_problems(cell: dict, canonical: str,
                  reference: str | None) -> list[str]:
    """Every problem with one cell's canonical output."""
    problems = content_problems(cell, canonical)
    if reference is None:
        problems.append("no pinned reference")
    elif sha256(canonical) != reference:
        problems.append("canonical output differs from the pinned reference")
    return problems
