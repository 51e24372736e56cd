"""The cases of a ``solve_cases`` tree, walked from its root.

A ``Branch`` holds only its step: the pairs it adds to the chain of
substitutions (``step``) and the polynomials it adds to those assumed
nonzero (``assumed``).  ``walk`` rebuilds the chain and the hypotheses of
every node from the root, and ``as_tree`` makes a node with its chain and
hypotheses a tree of its own, as ``kernel_contains`` takes one.  The file
name does not start with ``test_``, so pytest imports it only as a helper.
"""

from veralg.closure import Branch


def walk(tree, chain=(), hypotheses=()):
    """Yield (node, chain, hypotheses) for each node, depth first, parents
    first; chain and hypotheses are those of the nodes above the tree."""
    chain += tree.step
    hypotheses += tree.assumed
    yield tree, chain, hypotheses
    for child in tree.children:
        yield from walk(child, chain, hypotheses)


def as_tree(node, chain, hypotheses):
    """The node as a root: its chain and hypotheses from the root are its step."""
    return Branch(
        chain, hypotheses, node.residuals, node.status, node.note, node.children
    )
