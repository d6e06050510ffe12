#!/usr/bin/env python3
"""Run README.md's documented commands exactly as written.

Usage: python3 tests/readme_smoke.py [BUILD_DIR]    (default: build)

The commands are read from README.md's fenced blocks at run time, so a
stale README fails here instead of misleading a reader:

  - "Library in five lines": the C++ snippet is wrapped in a minimal
    main(), compiled against BUILD_DIR's libraries and run;
  - "Quickstart" and "Fault injection ...": run as shell scripts;
  - "Design as a service": the daemon block with the trace-dump/debug
    block spliced in before its SIGTERM line, so every client command
    talks to the live daemon; the drain must exit 0;
  - "Surviving restarts": the SIGKILL/restart block; the scraped
    autofsm_store_warm_hits_total must be nonzero.

Everything runs in a scratch working directory holding a `build`
symlink to BUILD_DIR. Shell blocks run under `bash -e -o pipefail`;
the only lines added around the README's are harness lines: after a
backgrounded daemon, record its pid and wait for its port; after a
SIGKILL, reap the daemon so the restart can bind the port; at the end,
drain any daemon still running, and kill it if a command failed. Any
non-zero exit fails the smoke.
"""

import glob
import os
import re
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def readme_blocks():
    """Map each heading to the list of (language, text) fenced blocks."""
    sections = {}
    heading = None
    fence = None
    lines = []
    with open(os.path.join(ROOT, "README.md")) as readme:
        for line in readme:
            if fence is not None:
                if line.startswith("```"):
                    sections.setdefault(heading, []).append(
                        (fence, "".join(lines)))
                    fence = None
                else:
                    lines.append(line)
            elif line.startswith("```"):
                fence = line[3:].strip()
                lines = []
            elif line.startswith("#"):
                heading = line.lstrip("#").strip()
    return sections


def block(sections, heading, language, index=0):
    blocks = [text for lang, text in sections.get(heading, [])
              if lang == language]
    if index >= len(blocks):
        sys.exit(f"README.md: no {language} block #{index + 1} under "
                 f"'{heading}'")
    return blocks[index]


def logical_lines(text):
    """Join backslash continuations; keep comments and blank lines."""
    out, pending = [], ""
    for line in text.splitlines():
        if line.endswith("\\"):
            pending += line + "\n"
            continue
        out.append(pending + line)
        pending = ""
    if pending:
        out.append(pending)
    return out


def command_part(line):
    """The line without a trailing ` # comment`."""
    return re.split(r"\s#", line, maxsplit=1)[0].rstrip()


def harnessed(lines):
    """Add the daemon bookkeeping lines around the README's own."""
    out = []
    for line in lines:
        out.append(line)
        command = command_part(line)
        port = re.search(r"--port=(\d+)", command)
        if command.endswith("&") and port:
            out.append("__daemon=$!")
            out.append(
                "for __i in $(seq 100); do "
                f"(exec 3<>/dev/tcp/127.0.0.1/{port.group(1)}) "
                "2>/dev/null && break; sleep 0.1; done")
        elif command.startswith("kill -KILL"):
            out.append('wait "$__daemon" 2>/dev/null || true')
    return out


def run_shell(name, lines, workdir):
    # A failing command must not leave a daemon holding the port.
    script = "\n".join(
        ["trap 'kill -KILL $(jobs -p) 2>/dev/null || true' EXIT"] +
        lines) + "\n"
    print(f"=== {name}\n{script}", flush=True)
    result = subprocess.run(
        ["bash", "-e", "-o", "pipefail", "-c", script], cwd=workdir,
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    print(result.stdout, flush=True)
    if result.returncode != 0:
        sys.exit(f"{name}: exit status {result.returncode}")
    return result.stdout


def compile_snippet(sections, build, workdir):
    snippet = block(sections, "Library in five lines", "cpp")
    includes = [l for l in snippet.splitlines() if l.startswith("#include")]
    body = [l for l in snippet.splitlines()
            if l.strip() and not l.startswith("#include")]
    source = "\n".join(
        includes + ["#include <vector>", "", "int", "main()", "{",
                    "    std::vector<int> trace;",
                    "    for (int i = 0; i < 4096; ++i)",
                    "        trace.push_back(i % 3 != 0 || i % 7 == 0);"] +
        ["    " + l for l in body] + ["    return 0;", "}", ""])
    path = os.path.join(workdir, "readme_snippet.cc")
    with open(path, "w") as out:
        out.write(source)
    print(f"=== Library in five lines\n{source}", flush=True)
    libraries = sorted(glob.glob(
        os.path.join(build, "src", "**", "libautofsm_*.a"), recursive=True))
    if not libraries:
        sys.exit(f"no libautofsm_*.a under {build}/src; build first")
    binary = os.path.join(workdir, "readme_snippet")
    subprocess.run(
        [os.environ.get("CXX", "c++"), "-std=c++20",
         "-I", os.path.join(ROOT, "src"), path, "-o", binary,
         "-Wl,--start-group", *libraries, "-Wl,--end-group", "-pthread"],
        check=True)
    subprocess.run([binary], check=True)


def main():
    build = os.path.abspath(sys.argv[1] if len(sys.argv) > 1 else "build")
    sections = readme_blocks()
    with tempfile.TemporaryDirectory(prefix="readme-smoke-") as workdir:
        os.symlink(build, os.path.join(workdir, "build"))
        compile_snippet(sections, build, workdir)

        run_shell("Quickstart",
                  logical_lines(block(sections, "Quickstart", "sh")),
                  workdir)
        run_shell("Fault injection",
                  logical_lines(block(
                      sections,
                      "Fault injection and graceful degradation", "sh")),
                  workdir)

        serve = logical_lines(block(sections, "Design as a service", "sh"))
        tracing = logical_lines(
            block(sections, "Design as a service", "sh", 1))
        stop = [l for l in serve if command_part(l).startswith("kill ")]
        start = [l for l in serve if l not in stop]
        if not stop:
            sys.exit("README.md: the daemon block no longer stops the "
                     "daemon")
        output = run_shell(
            "Design as a service",
            harnessed(start + tracing + stop) + ['wait "$__daemon"'],
            workdir)
        if "drained" not in output:
            sys.exit("Design as a service: the daemon did not drain")

        restart = logical_lines(block(
            sections, "Surviving restarts: the persistent store", "sh"))
        output = run_shell("Surviving restarts",
                           harnessed(restart) +
                           ['kill -TERM "$__daemon"', 'wait "$__daemon"'],
                           workdir)
        warm = re.findall(
            r"^autofsm_store_warm_hits_total(?:\{[^}]*\})? (\S+)$", output,
            re.MULTILINE)
        if not warm or float(warm[-1]) <= 0:
            sys.exit("Surviving restarts: autofsm_store_warm_hits_total "
                     f"is not nonzero ({warm})")
        print(f"warm hits after restart: {warm[-1]}")
    print("README smoke: every documented command ran")


if __name__ == "__main__":
    main()
