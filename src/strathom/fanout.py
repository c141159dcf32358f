"""Work split into parts across the CPUs a process may use.

`run_parts(work, parts)` computes work(part, parts) for each part: the
first in this process, every other one in a child forked for it, which
sends its result back through a pipe as JSON.  So a result must be a JSON
value, and one computed here must equal its own JSON round trip (lists, not
tuples).  A part whose child returns no whole result (it exited nonzero,
was killed by a signal, or sent truncated JSON, or no child could be
started) is computed again in this process, so any exception the part
raises surfaces here as in a serial loop.  No child outlives the call.
"""

from __future__ import annotations

import json
import os


def usable_cpus():
    """The CPUs this process may run on, or 1 where the platform cannot say
    or cannot fork."""
    if hasattr(os, "sched_getaffinity") and hasattr(os, "fork"):
        return len(os.sched_getaffinity(0))
    return 1


def _fork_part(work, part, parts):
    """(pid, read end of its pipe) of a child that computes one part and
    writes it there as JSON, or None where no child could be started.  The
    child leaves only through `os._exit`, so it flushes none of the
    parent's buffers and runs none of its exit handlers."""
    try:
        read, write = os.pipe()
    except OSError:
        return None
    try:
        pid = os.fork()
    except OSError:
        os.close(read)
        os.close(write)
        return None
    if pid == 0:
        status = 1
        try:
            os.close(read)
            data = memoryview(json.dumps(work(part, parts)).encode())
            while data:
                data = data[os.write(write, data):]
            status = 0
        finally:
            os._exit(status)
    os.close(write)
    return pid, read


def _child_result(pid, read):
    """Read a child's result to the end of its pipe and reap the child.
    None unless the child exited with status 0 and sent whole JSON."""
    chunks = []
    try:
        while chunk := os.read(read, 1 << 16):
            chunks.append(chunk)
    finally:
        os.close(read)
        status = os.waitpid(pid, 0)[1]
    if status != 0:
        return None
    try:
        return json.loads(b"".join(chunks))
    except ValueError:
        return None


def run_parts(work, parts):
    """[work(part, parts) for part in range(parts)], every part but the
    first computed in a forked child while this process computes the
    first."""
    children = {}
    try:
        for part in range(1, parts):
            children[part] = _fork_part(work, part, parts)
        results = [work(0, parts)]
        for part in range(1, parts):
            child, children[part] = children[part], None
            result = child and _child_result(*child)
            results.append(work(part, parts) if result is None else result)
    finally:
        for child in children.values():
            if child:
                # closed first, so a child blocked on a full pipe can leave
                os.close(child[1])
                os.waitpid(child[0], 0)
    return results
