"""Input of tests/test_option_count.py: every kind of option, and look-alikes that are not."""

import argparse
from dataclasses import dataclass, field


@dataclass(frozen=True)
class Settings:  # dataclass: 2
    size: int
    names: list = field(default_factory=list)
    LIMIT = 3  # not annotated: not a field


class Plain:  # annotations outside a dataclass are not fields
    size: int = 1

    def __init__(self, scale=1.0):  # parameter: 1
        self.scale = scale

    def resize(self, size, *, strict=False):  # parameter: 1
        return size

    def _helper(self, x=0):  # private
        return x


def public(a, b=1, *args, c=2, d, **kwargs):  # parameter: 2
    def nested(e=3):  # nested functions are not counted
        return e

    return nested


def _private(a=1):
    return a


def parser():  # argparse: 3
    p = argparse.ArgumentParser()
    p.add_argument("--x")
    p.add_argument("--y", type=int, default=1)
    sub = p.add_subparsers().add_parser("run")
    sub.add_argument("--z", action="store_true")
    return p
