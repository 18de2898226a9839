"""Engines load their modules when ``create_backend`` builds them.

Each check runs in a fresh interpreter: the rest of the suite shares
one process in which NumPy and every engine are already imported, so
it could neither see a serve process load code it never runs nor
catch an engine whose moved module forgot an import.
"""

import os
import subprocess
import sys
import textwrap

import pytest

from repro.backend import BACKEND_NAMES

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")

#: modules only the non-stock engines, the workloads and the
#: simulator use; the stock serve path must load none of them
ENGINE_MODULES = (
    "numpy",
    "repro.mp",
    "repro.cots",
    "repro.simcore",
    "repro.core.sketches",
    "repro.core.coding",
    "repro.workloads",
)

CHECK_LOADED = f"""
import sys
loaded = [m for m in {ENGINE_MODULES!r} if m in sys.modules]
assert not loaded, f"loaded {{loaded}}"
"""


def _run(script: str, lean: bool = False) -> subprocess.CompletedProcess:
    """Run ``script`` in a fresh interpreter; with ``lean``, then assert
    that it loaded none of :data:`ENGINE_MODULES`."""
    code = textwrap.dedent(script) + (CHECK_LOADED if lean else "")
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc


def test_stock_serve_round_trip_and_top_load_no_engine_modules():
    """Ingest, flush, point/set/top-k queries and ``top --once`` against
    the stock server, then stop it: no engine module was loaded."""
    _run("""
        import asyncio, io, json
        from repro.obs.registry import MetricsRegistry
        from repro.serve import ServeConfig, StreamServer, run_top

        async def main():
            config = ServeConfig(port=0)
            async with StreamServer(config, metrics=MetricsRegistry()) as srv:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", srv.port)

                async def ask(frame):
                    writer.write((json.dumps(frame) + "\\n").encode())
                    await writer.drain()
                    reply = json.loads(await reader.readline())
                    assert reply["ok"], reply
                    return reply

                await ask({"op": "ingest", "events": ["a", "b", "a", 7]})
                await ask({"op": "flush"})
                point = await ask({"op": "query", "kind": "point",
                                   "element": "a", "k": 1})
                assert point["count"] == 2 and point["in_top_k"]
                found = await ask({"op": "query", "kind": "set",
                                   "elements": ["b", 7]})
                assert [r["count"] for r in found["results"]] == [1, 1]
                top = await ask({"op": "query", "kind": "topk", "k": 1})
                assert top["results"][0]["element"] == "a"
                await ask({"op": "stats"})
                await ask({"op": "metrics"})
                out = io.StringIO()
                assert await run_top("127.0.0.1", srv.port, once=True,
                                     out=out) == 0
                assert "repro top" in out.getvalue()
                writer.close()
                await writer.wait_closed()

        asyncio.run(main())
    """, lean=True)


def test_cli_help_loads_no_engine_modules():
    _run("""
        import contextlib, io
        from repro.cli import main
        with contextlib.redirect_stdout(io.StringIO()) as out:
            try:
                main(["--help"])
            except SystemExit as exc:
                assert exc.code == 0
        assert "serve" in out.getvalue()
    """, lean=True)


@pytest.mark.parametrize("name", BACKEND_NAMES)
def test_every_engine_builds_in_a_fresh_interpreter(name):
    """Each engine imports what it needs when it is built: build,
    ingest, snapshot and close it in an interpreter that loaded
    nothing else first."""
    proc = _run(f"""
        from repro.backend import create_backend
        backend = create_backend({name!r}, capacity=16, workers=2)
        try:
            assert backend.ingest(["a", "b", "a", 3, 3, 3]) == 6
            snap = backend.snapshot()
            assert snap.processed == 6
            assert [e.element for e in snap.top_k(2)] == [3, "a"]
        finally:
            backend.close()
        print("ok")
    """)
    assert proc.stdout.strip() == "ok"
