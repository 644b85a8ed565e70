"""Accepted-step errors are carried forward, not re-evaluated.

An accepted step's ``error_after`` is ``graph.error`` of the very
``Values`` the next iteration starts from, so Gauss-Newton and
Levenberg-Marquardt reuse it as that iteration's ``error_before``.  The
digests below pin ``repr(result.iterations)`` (every field of every
``IterationRecord``, elimination stats included) as recorded from the
solvers that evaluated the error twice per iteration.
"""

import hashlib

import pytest

from repro.apps import all_applications
from repro.factorgraph.graph import FactorGraph
from repro.optim import gauss_newton, levenberg_marquardt

SOLVERS = {"gauss_newton": gauss_newton,
           "levenberg_marquardt": levenberg_marquardt}

# "app/algorithm/solver" -> (iterations, sha256 of repr(iterations)) for
# the seed-0 graph of every algorithm of every application.
PINNED = {
    "MobileRobot/control/gauss_newton": (
        2, "e7d10bf13f88f98e2a982b54e73d9e114d6672bb45edc8ecda5d333a4266b299"),
    "MobileRobot/control/levenberg_marquardt": (
        3, "0899bb6047b1af03d2ab98e99c34e4564e05109213f64f06647ccc2fa7401299"),
    "MobileRobot/localization/gauss_newton": (
        4, "82bbb430f82bdf64b53391c5410a0f4f9fd8c513e3f5d920912b0cf667e94c21"),
    "MobileRobot/localization/levenberg_marquardt": (
        4, "213821d9917105ce2446f6be4ce8967605854adcd04b54a0b654ad03564a58bb"),
    "MobileRobot/planning/gauss_newton": (
        25, "17a77c75550840712ad3e5be6b1fd37c0836eba15904e42dc4ff6e6a113f3b65"),
    "MobileRobot/planning/levenberg_marquardt": (
        18, "739357451a6afe19849d297e2b4baaddd5b3b3193e17542cb635f2fa25e68ec0"),
    "Manipulator/control/gauss_newton": (
        2, "1d6fdabcba4e26d05da09ac12a796d2d93a105a283a9e4c7e16c3fa9ea21a493"),
    "Manipulator/control/levenberg_marquardt": (
        3, "c082fe4d5ce7d1160a4a631f876b572740e92ffb2c39ecae66a9aacfdff0e755"),
    "Manipulator/localization/gauss_newton": (
        1, "cf5ae44d9c2877ff9f419f7fa108fc6db244b4f5a883e39ff709d3720a86015d"),
    "Manipulator/localization/levenberg_marquardt": (
        1, "83dfaed980c27e86fd4be4855c2a2748ead610ef7261f7299230a062d64053ee"),
    "Manipulator/planning/gauss_newton": (
        25, "a0aa3be67e4b30bc6d26d8c891f84fe024e091d4e0046fdf385f0119f3bf853a"),
    "Manipulator/planning/levenberg_marquardt": (
        32, "7ae05d13725a55cb59575f77fd1ebf33ddc2405991d11affc9ff5848e0fe1ae2"),
    "AutoVehicle/control/gauss_newton": (
        2, "7c6625804e8272c0b641c25b0d7e50f8eed407231e261b7991e805b3fa29272b"),
    "AutoVehicle/control/levenberg_marquardt": (
        3, "6063b45c06634c38a5a4840eb2b39f7179d3bba761782f2874fb901bff58b058"),
    "AutoVehicle/localization/gauss_newton": (
        3, "3bd20d01ccdcefd10fec3851bfcbc2a0c206d387f42ebbc46407f6a151504755"),
    "AutoVehicle/localization/levenberg_marquardt": (
        3, "2e77db2a330269f8ed06105991d97830485e66d165b787cfaf08c00318f12532"),
    "AutoVehicle/planning/gauss_newton": (
        10, "d1609b485bf030ad422fda80345518c2260f45211d3b04ea36e7e562a67b209f"),
    "AutoVehicle/planning/levenberg_marquardt": (
        10, "b04c87f4ab4493b07b21e4d5065526295dcf63d60f50e8021c1f240ae9466235"),
    "Quadrotor/control/gauss_newton": (
        2, "36c9a8912d8c523756c6cce32df4effc677c7a6afad7bc88a9e9025172feeb22"),
    "Quadrotor/control/levenberg_marquardt": (
        3, "7fc556d3032431b495a02af4c81ac03c5854b2c91783035556c0452c6e39f83d"),
    "Quadrotor/localization/gauss_newton": (
        5, "cdffa59f427aacf022ca27c90c821ca25e1890cf66ba9335cf2d21e48f3b3b8c"),
    "Quadrotor/localization/levenberg_marquardt": (
        5, "fd45af34bc4c01c3f70f4bd43dc80ae5fa79769285b5101560f64d72313ec199"),
    "Quadrotor/planning/gauss_newton": (
        15, "a54f68d2a7e95c3d073e680ba0d6206001f750b77f4f413373aa00275b03fdf6"),
    "Quadrotor/planning/levenberg_marquardt": (
        17, "1cf2f1a8d719aeeeb0f74a3e097d2a31fd151a417152e43f8a752198a7cb9b2c"),
}


@pytest.fixture(scope="module")
def graphs():
    return {f"{app.name}/{name}": built
            for app in all_applications()
            for name, built in app.build_graphs(0).items()}


@pytest.mark.parametrize("case", sorted(PINNED))
def test_iterations_field_identical(graphs, case):
    problem, solver = case.rsplit("/", 1)
    graph, values = graphs[problem]
    result = SOLVERS[solver](graph, values)
    digest = hashlib.sha256(repr(result.iterations).encode()).hexdigest()
    assert (len(result.iterations), digest) == PINNED[case]


@pytest.mark.parametrize("app", ["MobileRobot", "Manipulator",
                                 "AutoVehicle", "Quadrotor"])
def test_gauss_newton_evaluates_error_once_per_iterate(graphs, monkeypatch,
                                                        app):
    calls = []
    error = FactorGraph.error

    def counting_error(self, values):
        calls.append(1)
        return error(self, values)

    monkeypatch.setattr(FactorGraph, "error", counting_error)
    for name in ("localization", "control", "planning"):
        graph, values = graphs[f"{app}/{name}"]
        del calls[:]
        result = gauss_newton(graph, values)
        k = len(result.iterations)
        assert k >= 1
        assert len(calls) == k + 1, name
