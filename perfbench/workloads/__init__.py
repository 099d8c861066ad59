"""The benchmark's workloads, by name.

Each workload class offers the same five steps:

* ``prepare()`` makes the inputs the benchmark generates itself (not
  timed, not part of set-up);
* ``setup(inputs, rec)`` is the program's set-up, timed as ``setup_s``;
* ``replay(state, rec)`` makes the runner's per-chunk public calls one
  by one — traced when *rec* records — and returns an
  :class:`~workloads.common.Outcome` whose answers the oracle checks;
* ``timed_round(state)`` is one untraced round through the runner's own
  entry point; its digest must equal the replay's;
* ``reusable`` says whether a state survives a round (else every round
  prepares and sets up afresh).
"""

from workloads.churn_uniform200 import ChurnUniform200
from workloads.lossy_multichannel import LossyMultichannel
from workloads.roaming_hospital import RoamingHospital
from workloads.static_park import StaticPark

WORKLOADS = {
    cls.name: cls
    for cls in (StaticPark, LossyMultichannel, RoamingHospital, ChurnUniform200)
}
