"""Tiny arithmetic expression evaluator for config-supplied functions.

Grammar: numeric literals, parameter names, + - * / ^ (power), parentheses,
unary minus, and the functions exp, ln (alias log), sqrt, sin, cos, tanh.
Parsed through the Python ast with a strict node whitelist; nothing else
evaluates. Unicode x (times), / (divide) and minus variants are normalized.
Evaluation that leaves the reals (division by zero, overflow, a math
domain error or a complex power) raises DomainError.
"""

from __future__ import annotations

import ast
import math
from typing import Callable, Sequence

from .errors import DomainError

_FUNCS = {
    "exp": math.exp,
    "ln": math.log,
    "log": math.log,
    "sqrt": math.sqrt,
    "sin": math.sin,
    "cos": math.cos,
    "tanh": math.tanh,
    "abs": abs,
}

_CONSTS = {"pi": math.pi, "e": math.e}

_BINOPS = {
    ast.Add: lambda a, b: a + b,
    ast.Sub: lambda a, b: a - b,
    ast.Mult: lambda a, b: a * b,
    ast.Div: lambda a, b: a / b,
    ast.Pow: lambda a, b: a ** b,
}

_NORMALIZE = str.maketrans({"×": "*", "÷": "/", "−": "-", "·": "*"})


def _normalize(text: str) -> str:
    return text.replace("^", "**").translate(_NORMALIZE)


class ExpressionError(ValueError):
    pass


def compile_expression(text: str, names: Sequence[str]) -> Callable[..., float]:
    """Compile `text` into f(*values) evaluating with names bound in order."""
    names = tuple(names)
    try:
        tree = ast.parse(_normalize(text), mode="eval")
    except SyntaxError as exc:
        raise ExpressionError(f"cannot parse expression {text!r}: {exc}") from None

    def check(node: ast.AST) -> None:
        if isinstance(node, ast.Expression):
            check(node.body)
        elif isinstance(node, ast.BinOp):
            if type(node.op) not in _BINOPS:
                raise ExpressionError(f"operator {type(node.op).__name__} not allowed")
            check(node.left)
            check(node.right)
        elif isinstance(node, ast.UnaryOp):
            if not isinstance(node.op, (ast.UAdd, ast.USub)):
                raise ExpressionError("only unary +/- allowed")
            check(node.operand)
        elif isinstance(node, ast.Call):
            if not isinstance(node.func, ast.Name) or node.func.id not in _FUNCS:
                raise ExpressionError(f"unknown function in {text!r}")
            if node.keywords or len(node.args) != 1:
                raise ExpressionError("functions take exactly one argument")
            check(node.args[0])
        elif isinstance(node, ast.Name):
            if node.id not in names and node.id not in _CONSTS:
                raise ExpressionError(
                    f"unknown name {node.id!r}; parameters are {list(names)}"
                )
        elif isinstance(node, ast.Constant):
            if not isinstance(node.value, (int, float)):
                raise ExpressionError("only numeric literals allowed")
        else:
            raise ExpressionError(f"{type(node).__name__} not allowed in expressions")

    check(tree)

    def evaluate(node: ast.AST, env: dict[str, float]) -> float:
        if isinstance(node, ast.Expression):
            return evaluate(node.body, env)
        if isinstance(node, ast.BinOp):
            return _BINOPS[type(node.op)](evaluate(node.left, env),
                                          evaluate(node.right, env))
        if isinstance(node, ast.UnaryOp):
            v = evaluate(node.operand, env)
            return -v if isinstance(node.op, ast.USub) else v
        if isinstance(node, ast.Call):
            return _FUNCS[node.func.id](evaluate(node.args[0], env))
        if isinstance(node, ast.Name):
            return env.get(node.id, _CONSTS.get(node.id))
        if isinstance(node, ast.Constant):
            return float(node.value)
        raise ExpressionError("unreachable")  # pragma: no cover

    def func(*values: float) -> float:
        if len(values) != len(names):
            raise TypeError(f"expected {len(names)} arguments {names}")
        try:
            # a complex power (negative base, fractional exponent) surfaces
            # as a TypeError in math.* or in float()
            return float(evaluate(tree, dict(zip(names, values))))
        except (ZeroDivisionError, OverflowError, ValueError, TypeError) as exc:
            raise DomainError(
                f"{text!r} has no real value at {dict(zip(names, values))}: {exc}"
            ) from None

    func.__name__ = f"expr[{text}]"
    return func
