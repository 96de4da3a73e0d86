"""Figure 1: structure of the Amber Red/Black SOR implementation.

Figure 1 is a structure diagram; this benchmark runs the real program on
three sections (as drawn) and checks the instantiated topology: one
master, one section object per stripe on its own node, computation
threads plus edge threads toward each neighbor plus one convergence
thread per section.
"""

from repro.bench.figure1 import run_figure1


def test_figure1_topology():
    structure = run_figure1()
    print()
    print(structure.describe())

    assert structure.master_node == 0
    assert len(structure.sections) == 3
    # Sections land on distinct nodes (static placement, one per node).
    assert [s.node for s in structure.sections] == [0, 1, 2]
    for section in structure.sections:
        assert section.workers >= 1
        assert section.convergers == 1
    # Edge threads: one per neighbor — ends have one, the middle has two.
    assert [s.edge_threads for s in structure.sections] == [1, 2, 1]
