"""One window shape: past the generator, traffic is flat entry columns.

A workload's ``_emit`` returns :class:`~repro.hw.access.AccessGroup`
lists and ``Workload.next_window`` packs them into one
:class:`~repro.hw.access.WindowTraffic` record; the machine, the share
split, the samplers and the trace recorder read only its columns.  The
tripwire below fails when a module outside the generator side names
``AccessGroup`` or reads a ``.groups`` attribute, so that a second
window shape cannot creep back in.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

#: Where groups may appear: their definition, its package re-export,
#: and the generators that emit them.
GENERATOR_SIDE = ("hw/access.py", "hw/__init__.py", "workloads/")


def consumer_modules():
    """``(relative path, path)`` of every ``src/repro`` module outside
    the generator side."""
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        if not rel.startswith(GENERATOR_SIDE):
            yield rel, path


def group_shape_uses(source: str):
    """``(line, what)`` for every use of the group-list window shape:
    the name ``AccessGroup`` (imported, referenced or as an attribute)
    or a read of an attribute named ``groups``."""
    flagged = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and node.id == "AccessGroup":
            flagged.append((node.lineno, "AccessGroup"))
        elif isinstance(node, ast.alias) and node.name == "AccessGroup":
            flagged.append((node.lineno, "AccessGroup"))
        elif isinstance(node, ast.Attribute) and node.attr == "AccessGroup":
            flagged.append((node.lineno, "AccessGroup"))
        elif (
            isinstance(node, ast.Attribute)
            and node.attr == "groups"
            and isinstance(node.ctx, ast.Load)
        ):
            flagged.append((node.lineno, ".groups"))
    return sorted(flagged)


class TestWindowShape:
    def test_tripwire_flags_planted_group_uses(self):
        source = "\n".join(
            [
                "from repro.hw.access import AccessGroup",
                "g = AccessGroup(pages, counts, mlp=2.0)",
                "n = len(traffic.groups)",
                "for group in window.groups: pass",
                "x = access.AccessGroup",
                # Column reads and unrelated names must not be flagged.
                "pages = traffic.pages",
                "n = traffic.num_groups",
                "self.groups = []",
                "group_ptr = traffic.group_ptr",
            ]
        )
        assert [line for line, _ in group_shape_uses(source)] == [1, 2, 3, 4, 5]

    def test_only_the_generator_side_names_groups(self):
        flagged = [
            f"{rel}:{line}: {what}"
            for rel, path in consumer_modules()
            for line, what in group_shape_uses(path.read_text())
        ]
        assert flagged == []

    def test_tripwire_scans_the_window_readers(self):
        scanned = {rel for rel, _ in consumer_modules()}
        readers = {"sim/machine.py", "sim/runbatch.py", "hw/stall.py", "hw/pebs.py",
                   "hw/drawplan.py"}
        assert readers <= scanned
