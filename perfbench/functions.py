"""Seeded random Boolean functions, rendered as expressions or Verilog.

A function is a binary expression tree of nested tuples::

    ("var", name) | ("not", t) | (op, left, right)   op in {"and", "or", "xor"}

The benchmark owns the generator, both renderers and the truth-table
evaluator, so the reference a design is checked against never passes
through the program's expression parser or Verilog reader.
"""

from __future__ import annotations

import random

from .checker import Assignments

__all__ = ["random_tree", "rename", "tree_inputs", "to_expr", "to_verilog", "tree_truth"]

_OPS = ("and", "or", "xor")
_EXPR_OP = {"and": "&", "or": "|", "xor": "^"}


def random_tree(
    rng: random.Random, names: list[str], extra_leaves: int, ops: tuple = _OPS
) -> tuple:
    """A random tree reading every name once plus ``extra_leaves`` repeats."""
    leaves = list(names) + [rng.choice(names) for _ in range(extra_leaves)]
    rng.shuffle(leaves)
    nodes: list[tuple] = [("var", name) for name in leaves]
    while len(nodes) > 1:
        i = rng.randrange(len(nodes) - 1)
        node = (rng.choice(ops), nodes[i], nodes[i + 1])
        if rng.random() < 0.25:
            node = ("not", node)
        nodes[i : i + 2] = [node]
    return nodes[0]


def rename(tree: tuple, prefix: str) -> tuple:
    """The same tree over ``prefix + name`` (sorted input order is kept)."""
    if tree[0] == "var":
        return ("var", prefix + tree[1])
    return (tree[0],) + tuple(rename(t, prefix) for t in tree[1:])


def tree_inputs(tree: tuple) -> list[str]:
    """Sorted variable names of a tree."""
    if tree[0] == "var":
        return [tree[1]]
    return sorted(set().union(*(tree_inputs(t) for t in tree[1:])))


def to_expr(tree: tuple) -> str:
    """Fully parenthesised expression text (``~ & | ^`` operators)."""
    kind = tree[0]
    if kind == "var":
        return tree[1]
    if kind == "not":
        return f"~{to_expr(tree[1])}"
    return f"({to_expr(tree[1])} {_EXPR_OP[kind]} {to_expr(tree[2])})"


def to_verilog(tree: tuple, module: str, output: str = "f") -> str:
    """One gate-primitive Verilog module computing the tree on ``output``."""
    inputs = tree_inputs(tree)
    lines: list[str] = []
    wires: list[str] = []

    def emit(node: tuple) -> str:
        if node[0] == "var":
            return node[1]
        args = [emit(child) for child in node[1:]]
        net = f"n{len(wires)}"
        wires.append(net)
        prim = "not" if node[0] == "not" else node[0]
        lines.append(f"  {prim} g{len(lines)} ({net}, {', '.join(args)});")
        return net

    root = emit(tree)
    lines.append(f"  buf g{len(lines)} ({output}, {root});")
    head = [
        f"module {module} ({', '.join(inputs + [output])});",
        f"  input {', '.join(inputs)};",
        f"  output {output};",
    ]
    if wires:
        head.append(f"  wire {', '.join(wires)};")
    return "\n".join(head + lines + ["endmodule", ""])


def tree_truth(tree: tuple, asg: Assignments) -> int:
    """The tree's output mask over ``asg``."""
    kind = tree[0]
    if kind == "var":
        return asg.masks[tree[1]]
    if kind == "not":
        return asg.full ^ tree_truth(tree[1], asg)
    left, right = tree_truth(tree[1], asg), tree_truth(tree[2], asg)
    if kind == "and":
        return left & right
    if kind == "or":
        return left | right
    return left ^ right
