"""A fixed pure-Python loop that measures the host's current speed.

    python3 perfbench/hostloop.py    # prints the loop's time in seconds

It uses no daggerdist code, so no change to the program can move it.  The
benchmark runs it in its own process before every repetition and divides the
run's times by its median (see ``run.py``).  Its work resembles the
program's: exact rational arithmetic on multi-word integers, tuple keys and
dictionary updates.  Changing this loop changes every scaled metric, so it
stays fixed.
"""
import time
from fractions import Fraction


def loop():
    table = {}
    acc = Fraction(0)
    for i in range(1, 20000):
        x = Fraction(i % 251 + 1, i % 241 + 1) ** 3
        key = (i % 7, i % 11, i % 13)
        table[key] = table.get(key, Fraction(0)) + x
        acc += x * table[key]
    return acc


if __name__ == "__main__":
    t0 = time.perf_counter()
    loop()
    print(time.perf_counter() - t0)
