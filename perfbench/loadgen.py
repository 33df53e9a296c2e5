"""Open-loop load generator for ``serve-online``, run as its own process.

    python3 perfbench/loadgen.py PORT SCHEDULE.npz RESULT.json

Sends every request of the schedule at its offset to the service's
``/v1`` API and polls until each resolves, from one thread over one
connection at a time, then writes what it saw as JSON.  A ticket is
polled every ``POLL_MIN_S`` until it has waited ten times that, then
after a further ``POLL_SHARE`` of the time it has waited so far: a
latency is read to within a tenth of itself, and a ticket held up by a
refit costs tens of polls, not hundreds, each of which the service
answers on a thread of its own.  It runs outside the benchmark process
so that its own Python work (encoding uploads, decoding polls) does not
compete with the service for the interpreter lock that the measured
latency depends on.
"""

from __future__ import annotations

import http.client
import io
import json
import sys
import time

import numpy as np

N_CLASSES = 2
ROW_SUM_TOLERANCE = 1e-9
LATENCY_LIMIT_S = 2.0
POLL_MIN_S = 0.003
POLL_SHARE = 0.1
RESOLVE_TIMEOUT_S = 30.0
BASE = "/v1/tenants/default"


def check_labels(labels: object, rows: int) -> str | None:
    """Why ``labels`` is not a valid ``(rows, K)`` probabilistic labeling."""
    labels = np.asarray(labels)
    if labels.shape != (rows, N_CLASSES):
        return f"labels shaped {labels.shape}, expected {(rows, N_CLASSES)}"
    if not np.isfinite(labels).all():
        return "non-finite labels"
    worst = float(np.abs(labels.sum(axis=1) - 1.0).max())
    if worst > ROW_SUM_TOLERANCE:
        return f"label rows sum to 1 only within {worst:.3g}"
    return None


def _request(port: int, method: str, path: str, body: bytes | None = None) -> tuple[int, dict]:
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=RESOLVE_TIMEOUT_S)
    try:
        headers = {"Content-Type": "application/octet-stream"} if body is not None else {}
        connection.request(method, path, body=body, headers=headers)
        response = connection.getresponse()
        return response.status, json.loads(response.read())
    finally:
        connection.close()


def drive(port: int, window_s: float, offsets: list[float], batches: list[np.ndarray],
          truths: list[np.ndarray]) -> dict:
    """Send each batch at its offset and poll each outstanding ticket on
    its backoff schedule until it resolves.  Latency runs from the
    scheduled send to the poll that shows the ticket resolved."""
    out: dict = {
        "latencies": [], "submit_s": [], "send_lag_s": [], "failures": [], "late": {},
        "sent": 0, "polls": 0, "done": 0, "failed": 0, "timed_out": 0,
        "rows_done": 0, "good": 0, "correct_rows": 0, "scored_rows": 0,
    }

    def fail(reason: str) -> None:
        out["failed"] += 1
        out["failures"].append(reason)

    def next_poll(index: int) -> float:
        """When to poll a ticket of request ``index`` next (s from start)."""
        now = time.perf_counter() - start
        return now + max(POLL_MIN_S, POLL_SHARE * (now - offsets[index]))

    pending: dict[str, tuple[int, float]] = {}  # ticket -> (request index, next poll)
    start = time.perf_counter()
    last_resolved = start
    due = 0
    while due < len(offsets) or pending:
        now = time.perf_counter() - start
        if due < len(offsets) and now >= offsets[due]:
            index, due = due, due + 1
            buffer = io.BytesIO()
            np.save(buffer, batches[index])
            out["send_lag_s"].append(now - offsets[index])
            sent_at = time.perf_counter()
            out["sent"] += 1
            try:
                status, payload = _request(port, "POST", f"{BASE}/submit", buffer.getvalue())
            except OSError as error:
                status, payload = 0, {"error": str(error)}
            out["submit_s"].append(time.perf_counter() - sent_at)
            if status == 202:
                pending[payload["ticket"]] = (index, next_poll(index))
            else:
                out["latencies"].append(time.perf_counter() - start - offsets[index])
                fail(f"submit answered {status}: {payload.get('error')}")
            continue
        for ticket, (index, poll_at) in list(pending.items()):
            if poll_at > now:
                continue
            waited = time.perf_counter() - start - offsets[index]
            if waited > RESOLVE_TIMEOUT_S:
                del pending[ticket]
                out["late"][ticket] = index
                out["timed_out"] += 1
                out["latencies"].append(waited)
                out["failures"].append(f"ticket {ticket} unresolved after {RESOLVE_TIMEOUT_S} s")
                continue
            out["polls"] += 1
            try:
                status, payload = _request(port, "GET", f"{BASE}/poll/{ticket}")
            except OSError:
                status, payload = None, {}  # polled again on schedule; the timeout bounds it
            state = payload.get("state") if status == 200 else "failed"
            if status is None or state == "pending":
                pending[ticket] = (index, next_poll(index))
                continue
            resolved = time.perf_counter()
            latency = resolved - start - offsets[index]
            del pending[ticket]
            out["latencies"].append(latency)
            last_resolved = resolved
            if state != "done":
                fail(f"ticket {ticket} {state}: {payload.get('error')}")
                continue
            labels = np.asarray(payload["probabilistic_labels"], dtype=np.float64)
            rows = batches[index].shape[0]
            problem = check_labels(labels, rows)
            if problem is not None:
                fail(problem)
                continue
            out["done"] += 1
            out["rows_done"] += rows
            out["good"] += int(latency <= LATENCY_LIMIT_S)
            out["correct_rows"] += int((labels.argmax(axis=1) == truths[index]).sum())
            out["scored_rows"] += rows
        wakes = [poll_at for _, poll_at in pending.values()] + offsets[due:due + 1]
        if wakes:
            time.sleep(max(0.0, min(wakes) - (time.perf_counter() - start)))
    # Throughput over the offered window, or longer when the service
    # drains past it.
    out["span_s"] = max(window_s, last_resolved - start)
    return out


def main(argv: list[str]) -> int:
    port, schedule_path, result_path = int(argv[0]), argv[1], argv[2]
    with np.load(schedule_path) as schedule:
        offsets = schedule["offsets"].tolist()
        window_s = float(schedule["window_s"])
        batches = [schedule[f"batch_{i}"] for i in range(len(offsets))]
        truths = [schedule[f"truth_{i}"] for i in range(len(offsets))]
    result = drive(port, window_s, offsets, batches, truths)
    with open(result_path, "w") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
