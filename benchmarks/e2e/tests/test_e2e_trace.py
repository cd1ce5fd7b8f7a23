"""The out-of-program tracer: nesting, self time, aggregation, removal."""

import threading
import time
import types

from benchmarks.e2e.trace import Tracer, self_times, summarize


def test_self_time_is_span_minus_children():
    tracer = Tracer()
    with tracer.span("op.demo", op=1):
        with tracer.span("outer"):
            time.sleep(0.01)
            with tracer.span("inner"):
                time.sleep(0.02)
    by_name = {span[3]: span for span in tracer.spans}
    own = self_times(tracer.spans)
    assert by_name["inner"][1] == by_name["outer"][0]  # parent link
    assert {span[2] for span in tracer.spans} == {1}  # one op id throughout
    outer = by_name["outer"][5] - by_name["outer"][4]
    inner = by_name["inner"][5] - by_name["inner"][4]
    assert abs(own[by_name["outer"][0]] - (outer - inner)) < 1e-9
    summary = summarize(tracer.spans)["demo"]
    assert summary["ops"] == 1
    assert summary["self_sum_error"] < 1e-6
    assert summary["layers"]["inner"]["ms"] >= 20


def test_install_wraps_and_remove_restores():
    module = types.SimpleNamespace(work=lambda x: x + 1)
    original = module.work
    tracer = Tracer()
    tracer.wrap(module, "work", "layer.work")
    assert module.work is not original
    with tracer.span("op.t", op=7):
        assert module.work(1) == 2
    tracer.remove()
    assert module.work is original
    assert [span[3] for span in tracer.spans] == ["layer.work", "op.t"]


def test_real_targets_are_restored():
    from repro.client.proxy import Proxy
    from repro.sgx.enclave import EnclaveHost

    before = (Proxy.execute, EnclaveHost.ecall)
    with Tracer():
        assert (Proxy.execute, EnclaveHost.ecall) != before
    assert (Proxy.execute, EnclaveHost.ecall) == before


def test_frequent_calls_aggregate_into_one_child():
    module = types.SimpleNamespace(tick=lambda: time.sleep(0.001))
    tracer = Tracer()
    tracer.wrap(module, "tick", "leaf", aggregate=lambda: 1)
    with tracer.span("op.t", op=1):
        with tracer.span("caller"):
            for _ in range(5):
                module.tick()
    tracer.remove()
    leaf = [span for span in tracer.spans if span[3] == "leaf@caller"]
    assert len(leaf) == 1 and leaf[0][6] == 5
    assert leaf[0][5] - leaf[0][4] >= 0.005


def test_other_threads_adopt_the_remote_parent():
    tracer = Tracer()

    def server_side():
        with tracer.span("server.work"):
            time.sleep(0.005)

    with tracer.span("op.t", op=9):
        with tracer.span("net.rtt", remote=True) as rtt:
            worker = threading.Thread(target=server_side)
            worker.start()
            worker.join()
    server = next(span for span in tracer.spans if span[3] == "server.work")
    assert server[1] == rtt and server[2] == 9
    assert summarize(tracer.spans)["t"]["self_sum_error"] < 1e-6
