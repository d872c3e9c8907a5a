#!/usr/bin/env python3
"""Holds two `qirana-benchmark run` processes in lock-step.

Each `run` starts one measuring child per (workload, seed), in the same
order on both sides. A side's `run` process is SIGSTOPped while its child
measures (signals to a pid do not reach its children), so when the child
exits the side cannot start the next one until it is continued. The two
sides take turns, and which side goes first alternates per step, so only
one measuring child ever runs and both sides see the same machine phases.

usage: lockstep.py DIR_A OUT_A DIR_B OUT_B [run args...]
"""
import os
import signal
import subprocess
import sys
import time


def children(pid):
    """(pid, state) of every direct child of `pid`."""
    out = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as f:
                stat = f.read()
        except OSError:
            continue
        fields = stat[stat.rindex(")") + 2:].split()
        if int(fields[1]) == pid:
            out.append((int(entry), fields[0]))
    return out


def measuring(pid):
    return any(state != "Z" for _, state in children(pid))


class Side:
    def __init__(self, name, directory, out, args):
        self.name = name
        exe = os.path.join(directory, "benchmark/target/release/qirana-benchmark")
        log = open(out + ".log", "w")
        self.proc = subprocess.Popen(
            [exe, "run", "--out", out] + args, cwd=directory, stdout=log, stderr=log
        )
        self.stop()

    def alive(self):
        return self.proc.poll() is None

    def stop(self):
        if self.alive():
            os.kill(self.proc.pid, signal.SIGSTOP)

    def turn(self):
        """Lets the side start its next child, then waits for it to finish."""
        if not self.alive():
            return
        os.kill(self.proc.pid, signal.SIGCONT)
        # Wait until a live child appears (or the run ends).
        while self.alive() and not measuring(self.proc.pid):
            time.sleep(0.005)
        self.stop()
        while self.alive() and measuring(self.proc.pid):
            time.sleep(0.05)


def main():
    dir_a, out_a, dir_b, out_b, *args = sys.argv[1:]
    a = Side("A", dir_a, out_a, args)
    b = Side("B", dir_b, out_b, args)
    step = 0
    while a.alive() or b.alive():
        order = (a, b) if step % 2 == 0 else (b, a)
        for side in order:
            side.turn()
        step += 1
        print(f"step {step} done", flush=True)
    print("exit codes", a.proc.returncode, b.proc.returncode)


if __name__ == "__main__":
    main()
