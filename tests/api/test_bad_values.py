"""One validator for every front door.

Each bad option value is refused with the same ``ValueError`` — naming
the field — whether it arrives as ``AnalysisOptions(...)``, as a
request dict, inside a spec file or in a ``POST /analyze`` body (a 400
there).  None of them may slip through as a degraded ``ok`` report or
surface as a raw ``TypeError``.
"""

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.api import AnalysisOptions, AnalysisRequest, requests_from_spec
from repro.service import create_server

#: (field, bad value): each is refused by the one validator.
BAD_VALUES = [
    ("max_multiplicands", 0),
    ("simulate_max_steps", 0),
    ("compute_lower", "no"),
    ("auto_invariants", "yes"),
    ("simulate_nondet", 1),
    ("tails", "true"),
    ("timeout_s", "1"),
    ("simulate_runs", "5"),
    ("max_degree", "3"),
    ("max_degree", True),
    ("degree", "2"),
    ("nondet_prob", "0.5"),
    ("tail_horizon", 2.5),
    ("tail_probes", "12"),
    ("simulate_seed", "0"),
    ("mode", "sideways"),
    ("check", "loud"),
]

IDS = [f"{field}={value!r}" for field, value in BAD_VALUES]


@pytest.fixture(scope="module")
def service():
    server = create_server(host="127.0.0.1", port=0, jobs=1)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.port}"
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)


def _post(base, payload):
    request = urllib.request.Request(
        base + "/analyze",
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    try:
        with urllib.request.urlopen(request, timeout=60) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


@pytest.mark.parametrize("field,value", BAD_VALUES, ids=IDS)
def test_refused_identically_everywhere(field, value, service):
    with pytest.raises(ValueError, match=field) as direct:
        AnalysisOptions(**{field: value})
    expected = str(direct.value)

    payload = {"benchmark": "rdwalk", field: value}
    with pytest.raises(ValueError) as from_dict:
        AnalysisRequest.from_dict(payload)
    assert str(from_dict.value) == expected

    with pytest.raises(ValueError) as spec:
        requests_from_spec({"defaults": {field: value}, "tasks": [{"benchmark": "rdwalk"}]})
    assert str(spec.value) == expected

    status, body = _post(service, payload)
    assert status == 400, body
    assert expected in body["error"]
