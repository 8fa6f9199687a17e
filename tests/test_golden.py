"""Golden contract: committed values of what the simulator produces, in two
tiers.

test_acceptance_6 only checks that two runs agree with each other, so a change
that moved every number the same way would still pass it. The values below
are fixed. Besides the shipped scenarios and a fault grid, the cells pinned
are the first ten seeds of test_acceptance_2, with its triggers, and two
handoff cells that reach the handoff's deferred paths.

Contract tier: SHA-256 digests of the shipped scenarios' reports and, per
cell, of its outputs, final state, MigrationRecord fields, mode transitions
and the number of control messages on each control queue. These are the
contract and change only with a deliberate behaviour change.

Mechanics tier: EVENTS, the exact number of simulated events each cell fires
(SimClock.events_processed). A change that drops events which do nothing
moves this tier and leaves the contract tier as it was; re-pin EVENTS only
then, and never together with a contract digest.

`PYTHONPATH=src python tests/test_golden.py` prints every table for pasting
back in, the mechanics tier last as one block.
"""

import dataclasses
import enum
import functools
import hashlib
import random
from pathlib import Path

import pytest

from migsim.config import load_scenario
from migsim.harness import export_csv, run_experiment
from migsim.migration import HandoffPolicy, Outcome, Technique
from migsim.service import ServiceInstance
from migsim.sim import FaultSpec, SimParams, Simulation
from migsim.simnet import Host, Link
from migsim.workload import WorkloadSpec

SCENARIO_DIR = Path(__file__).resolve().parents[1] / "scenarios"

TRIGGER_MS = 800.0
POLICIES = {
    "default": HandoffPolicy(),
    "threshold3": HandoffPolicy(handoff_threshold=3, replay_timeout_ms=400.0),
}
# (delivery_latency_ms, policy, processing_ms). Arrivals are 120 msg/s, so
# 11 ms processing is overloaded and 7 ms is not. This is a half fraction of
# the 2x2x2 product: every pair of levels of any two factors appears once.
VARIANTS = [(0.0, "default", 7.0), (0.0, "threshold3", 11.0),
            (0.7, "default", 11.0), (0.7, "threshold3", 7.0)]

SCENARIO_DIGESTS = {
    "asymmetric_links.json": "d8715750816d713fedb8f0318466fba284d8721b85f0758f03dc6da117da72ac",
    "calibrated.json": "04b06a84758e2a6132574f174fe78e8677d02662b7d8a514548dcf026e0feb77",
    "crash_replay.json": "08723f8521204e8235578c65cefbe936b9e67ba2a5af153a722290d2f47d9327",
    "stress_drain.json": "bac6d682701f3259f24cbee5cab25fe96a57cc28e1306aa4982daf9066f329df",
    "stress_overload.json": "433cff355ff6aea212e5e77083e3d9344cf1de41645aafe38b2887fae06c92bf",
    "zero_cost.json": "2484616fe4626e02c59412b1e900710b61dab83441744fa36dc359f23c5233ce",
}

GRID_DIGESTS = [
    "ffe7560b80b3bb71f0c6c5fe52f550342f39229add1664a10270e409e9af329b",
    "681e89bd1d5720d21a750c0572295f0b50ba5e38f757735e474d254978393c5e",
    "ffe7560b80b3bb71f0c6c5fe52f550342f39229add1664a10270e409e9af329b",
    "1bc4347aec874b0d0b92f3a90b75ab6961a3b33e46884a1267082a8e6c265792",
    "c45ee157614f5ef03ffd5da0d9937c122e4b7df0f34ae90be70253b93f9350f0",
    "e4e3ca29c8937ead3611229b29f1c4197700f85bd194131e4a47242bcf3cc433",
    "630ea7fc10e98b60d5eae3980c1d74544e5d611ba84ae88294cf9c22a6a73e6f",
    "229153315fe9fb3413f30cd3e3e5a4ac41f427f611be37dad55b3932ed9b4f61",
    "ccad58ef02a9a704491df29bbd9d41224e724f1a922d6dcb10911f6dbfcc0a9e",
    "bcd34ca222a864403edf17bf207ca45d8d841d21062e9445ba56b51df4ce7251",
    "1bdaf73dbc7fd069e4e99b1c4d54ca68cac98266686db27a465cf805877156f6",
    "c482e5e527d357f9b4d1e8d8d9fb624449ac5a863cce88789acd71445057a200",
    "728482df6d7e40f47e3f910f085621d881867b293fa845b4e23444a6dca10c34",
    "e532533a717e37aad56d1795098c7a87c70db3adde0989fc8a4445d7cd3c120b",
    "ef21db8540f85c38631b5abf0b979aadfff0f6172f6b9bad0cb75e41924286d0",
    "ffe7560b80b3bb71f0c6c5fe52f550342f39229add1664a10270e409e9af329b",
    "77abc737c937d49dab2fec6d4fb53c2d7d3f9fc40205777e69c2e77e335895c2",
    "8fff58257a12dd2a9c27acd98fda9666c695e12750e8eed35adffe638fe95a76",
    "d2eae5b43ad5c99c95fc6605befc8690c7333367606d892d82386ff404b6577a",
    "860fa99f31fa7e6ac112742323b31529e8f1cd0f63f92bb829683113dea208da",
    "bfa772160d3a996e3b4a3f26cdfaabd6594c7537de24ede441ad5a7fa50956a9",
    "fe991b65cc800744f2c56cca7e9f95dac38040c5e0475f2d1aab75f883429146",
    "a21b92e3a9502c5e8774f37607875913a813c4e992ed564bac0955af48aa4a3e",
    "43f0106b61e4e6d95178cf8771631f4ca1c862caa93ad404ef0b9b0e65ec87bb",
    "e5b07c8968f8fc0a316ec4b1c253f743e0768ff47956e2b2bbcd731ca652a9f5",
    "9797d09a7ef308fecd5754854b5924090866c550fadd3780093461d0b572bb07",
    "9f9ee2f53c7a9b79d2a0a056200155343c9908cf3c381b4288fc84025e854114",
    "5ea5399b5f1bb58302bfb85df11c82e8c0ad20dca96ab15250172a2fd8f9258f",
    "5d685d14144e965da503be09e9c22e10f3ceb58a6d04dc0eb2ff4a34c9c539d8",
    "16b8702a78311b6ea836d1b38094540e3371b68e1336c2439ccde24d09e8b86a",
    "e617ac5d7481f49be9bb5a7108bca450c1ee24945021bcdc17f8dbdff5e1a927",
    "3d49d381e8587e9a5987cb08695a460c35c64190bf23b9ce2cc394e30065d1cf",
    "8fff58257a12dd2a9c27acd98fda9666c695e12750e8eed35adffe638fe95a76",
    "b17bb588b720a3be26848a717f3156534873dc7a426fc45b1cf0a5cd5d480ce5",
    "dbeae48b65385cf07973b57da39b653654dad7d5d15ceed4b516330a2d216124",
    "71804a63a812318ea1154f040d402ea9a6ca00cdf78b16b85d41830d11696850",
    "6333c0940e09b9115c70c056ea4a0c36f9131b3822de347d51bbcdc0032a2da0",
    "60f256890dec74f57c99cd5a19898d49e30387200dd80e983e807b0f95f15fe0",
    "2c763c880e7934d25d5ceb41af5a5b56092f4ce9b7b30aa25cf550d04e8bd661",
    "abf4e97ddd5bf99ad9c2c9a23b98d45f8f9b5049cd4c82c1acb37662726a84fd",
    "7e58e6cf421aeb607f4e18b88371f59c8ff51cc672f24a2daec6842dcb3e5d06",
    "bf688fee91928a279a7067d6bcf17199fff0e3ff2894a8f2df41d647cebb65fb",
    "1e44b5805e5634c2b1e993951134093644b4f29c5749876eaf5e300cf9a6753c",
    "86331b6bf3fb843a7f8fd489f20c162573f51ab4acffc337be05ac65d98034ad",
    "628f9fcbf703ff45a8e9b702c7dc4af640a1842a2f7333e51d280fe837c7c273",
    "4aa39acc9df94b2188e8967fa1f306ed1dc93f6032bb18b8122dd33e272320c2",
    "87cb52fc2164d57fbddc18803a68f37607755ec98bf242c336508ae54e63eb8a",
    "681e89bd1d5720d21a750c0572295f0b50ba5e38f757735e474d254978393c5e",
    "eb925cde110fbf338307a234cd89c0f9617cb2b6ac660131182864127090ce86",
    "9e1551c7d2f7d36787acd3d898bebbb90fbca52b0f579b0188dddf48a47b7de4",
    "5b2d9e7e3eb508f52aacf4ecf16242ff9d7c1c7831610e71fd03a4e74e48db96",
    "8459750cf9d98f6f44dd5df463521a3ea75a3205a1d58475c0bd715834494d57",
    "96ac119ae7848fa1bf531f84163a53f5fdc7a88057b4e30e0f487f4cae34cd32",
    "8006fc51265adb4ffb732a344a83082fe73fd47884930328447df14440cf5a7e",
    "77775a2295bc1c6b4248d966b7773a2380a8ff1ae82cf06b430b3683784169a4",
    "a4cfff579420624a3369ea0a65d748b3797536873699fbc18d23d6a32bb1f6ca",
    "e98e8211194d8205120b9039f3bf1411baceb7217887b4da91987c3c83be79bf",
    "27e03e42fb0b0e7de127d95aa9525f131b8bf245417042fcf92c7f74c70f060a",
    "332bb63a829fb9d357f87b82f78225fe0e6114c0c993981c28254399280ed514",
    "498fb1604447008d769bc563734869f852a84907f2ac9c79770ffb866dfa5bec",
    "85e57b6de74bfc155571750c13ebe0cd5a4f6c4fe1f3b01c07f570e202006f2f",
    "8ae3cac5bafe4cad94485044cf720f5720decac93d5707855e37827db1cee6cb",
    "f76691affac6600f65fbfd06a6c66b6f5f784a5c4844d92f79f7517912ccad0b",
    "8ae3cac5bafe4cad94485044cf720f5720decac93d5707855e37827db1cee6cb",
    "97f9e9a9ce99b5d5683cc97d368fe7df7253effad1b528e1df5d6a2f186d01c5",
    "bb195f95395d80d72e07814a978a651fe30065f560246f429113490f68b44671",
    "52731a2d3912da95768cc29c19026fcb2c56bff2f24edcfcb376eb6f128b55bf",
    "10905eb61f527ea0902cda44c81b28499381a9a360486347a8a9b8f213d18bb4",
    "5f2a508665b5ef66cbfcf807dc310cb895b4f5a2b33296e7a41953b6fee8b9ef",
    "b188ebfa806c5c6f6e71e8fea4811dd6fa0c2a2011405bc97206bf337df9db3c",
    "8ae3cac5bafe4cad94485044cf720f5720decac93d5707855e37827db1cee6cb",
    "8ae3cac5bafe4cad94485044cf720f5720decac93d5707855e37827db1cee6cb",
    "8ae3cac5bafe4cad94485044cf720f5720decac93d5707855e37827db1cee6cb",
    "a51600e39a612ecb67b7075d787339147b3b5e9a8612d8302ae28d606e8f5f6b",
    "99292edc8de13467d18b85e17786cf31bc5a6be61dd5941f3e3ff4fc5815c310",
    "a51600e39a612ecb67b7075d787339147b3b5e9a8612d8302ae28d606e8f5f6b",
    "30c9c5eabe6080a6dce646ba130728a1c6fd99efaa63abad2580b466d739e9f9",
    "d8b3f54546bbcd23cfdce78c70d2070e9da351fb15ded711a080d43aaeb3dac2",
    "0376167e2ec10a4021cd316bd1d5df99a9b7cf8b8662b827408d2f4d18da5ee0",
    "4cbbf9fde3ae23649a6bea3e5f4718b2b8fd42d6dc507d695cfb9931068de595",
    "fad22ca15bd4014ba74d7ccda31e993466573a370480ef51bfd9eb6dab047e0a",
    "19edd4d1c2a4b19a8df44ab303fbe59721942c119232031f44e7821a7b3a3573",
    "a51600e39a612ecb67b7075d787339147b3b5e9a8612d8302ae28d606e8f5f6b",
    "a51600e39a612ecb67b7075d787339147b3b5e9a8612d8302ae28d606e8f5f6b",
    "a51600e39a612ecb67b7075d787339147b3b5e9a8612d8302ae28d606e8f5f6b",
    "e1c5b8de2cbcdc82bed48a38129a4d7ca24b7d284af8ed86ab09894a6c92e418",
    "99292edc8de13467d18b85e17786cf31bc5a6be61dd5941f3e3ff4fc5815c310",
    "e1c5b8de2cbcdc82bed48a38129a4d7ca24b7d284af8ed86ab09894a6c92e418",
    "3e48f99bac73bd5b1bc29bc1642594be5abde9c48c2f26453bb041af02e8d749",
    "c10b9cd7cb7124076113c4d22bcff9e1e2a9ceab4fa1aa9a0a122ffdaee832bd",
    "7f61806e1bc2eab3c97d0ee4110f1328b332d5fb49fe06d960120808c5ebacfc",
    "a9576476282e77928ad42152496270fddaa10f931e2702c44ab2bc05b62a54fc",
    "d9e571f56917e65088cf372c416527b84ded31df3ae4f253bab25f18314dda1e",
    "d87116b21e32a39c8e5b8596d9488821825e18764af0f228d4f0b436ddffb78a",
    "e1c5b8de2cbcdc82bed48a38129a4d7ca24b7d284af8ed86ab09894a6c92e418",
    "e1c5b8de2cbcdc82bed48a38129a4d7ca24b7d284af8ed86ab09894a6c92e418",
    "e1c5b8de2cbcdc82bed48a38129a4d7ca24b7d284af8ed86ab09894a6c92e418",
    "e1c5b8de2cbcdc82bed48a38129a4d7ca24b7d284af8ed86ab09894a6c92e418",
    "9fcf6dd87f978f93b21cf0a76081c6d8f5b3b7923bbe32de9acc109410cd4c12",
    "f76691affac6600f65fbfd06a6c66b6f5f784a5c4844d92f79f7517912ccad0b",
    "9fcf6dd87f978f93b21cf0a76081c6d8f5b3b7923bbe32de9acc109410cd4c12",
    "f3818a29b7a8140465d1d6b67dec2e95c2f7b9ec6153b525ec127f44c940bb4d",
    "4afa10104f940a3f0ca4236fcc4a2387cf441514a68286f265982b8ee85d6e7a",
    "5a05c24e7fb3d0f110117d5e0ec3347c15cb33f9a9e0420aca8cbf1f29b632c7",
    "70231c6f301f6f24ef5fcb9919e54f449fc6b07b4b65cd201b6606661f787569",
    "023b1cdd8663ef56dbb30610ea9ad656408a416da2bc3bf24a43d8a620812738",
    "39d4510bafeef73ccfaadf8bdec4786c73f201b6fbe12d7ecb5278259d48b361",
    "9fcf6dd87f978f93b21cf0a76081c6d8f5b3b7923bbe32de9acc109410cd4c12",
    "9fcf6dd87f978f93b21cf0a76081c6d8f5b3b7923bbe32de9acc109410cd4c12",
    "9fcf6dd87f978f93b21cf0a76081c6d8f5b3b7923bbe32de9acc109410cd4c12",
    "9fcf6dd87f978f93b21cf0a76081c6d8f5b3b7923bbe32de9acc109410cd4c12",
]

ACCEPTANCE2_DIGESTS = [
    "18ddb4fe1bb2600a75706caed34d70eae38502844a3385292ba2367dec3142f4",
    "4f5d28294f1760d2f26b2b8b6f26367d573d37c265ce6890045d3ad31e54857a",
    "31d93190c9d3c2b4ad44eeabcbbed4c1ff3475fbc72be9aba72b4c0edc8e790f",
    "d6ec9c34a98bdcfc54c25a25da51a038616f3998df50954673b9552f97dba16d",
    "82a4095ded4f58f5055c404e59dc2b101a4ee7f0c460e0149c6b0007ea23ca54",
    "bc6515e02cc7925ea4c852f2aa9eb00adb89e5a1dc1650bbe714a469b2ab4a6a",
    "fbe3887dfc65df901c48a28889b689981a2fd99909ea4bfabc6131e259b3f0b6",
    "bdd1a853ad0f16036a1bc7edf0036d61a7e2c24a1aaf7f2bc7e1e3dbd51ea27d",
    "f8add503904c164f42067c4197dcdb47913a65dccc74141380b0abc84eafaebb",
    "26a69742b91ded3a53ce46822b7bc18020f7eb13bb50305511ad6d23c610cbb5",
    "3ab0e1f805c87fbca63fea350dd63a850db50c34b9a9339ca49ff75d408864cb",
    "9ff416514d88351ff692b691087fbb239f8219c73cba70dbb7f50a5728a7266e",
    "4c479694727261ee5c3a3118b5c889c171ce5a194cc706a4440b87e8c4600767",
    "000668e4f9d4610448ceb106e82e9563932fac80f3399eb4b39166f7cefadfd5",
    "1548556ca125e6ae6226c24649961dc9e2eae28492c58c5d356a92841ce60b17",
    "64e58e1b55b8ab686dcd6e1461c273b9f1658488eac85a6f85ba8b8c96747891",
    "af55d11f4df979da41d850c4eb86b5dd1d75de78c8c86557b4c6cb70526477da",
    "679759fa324b736e251919ac48b9701ae5144335300d97f1d2c82efcf18a5618",
    "11dba081e99db4bdf738571ef352e05301b3cde8d788c7415f47d4d6d3bc9f6f",
    "ec5db5350294bcd1ebcc35be0b852ae876a0588a9fa095871a08a46a6523cc82",
]

# no other cell reaches these: the target is busy at freeze, the source is
# busy at stop_request, and the target is behind the watermark when it
# finishes the replay (test_handoff_cells_reach_the_deferred_paths)
HANDOFF_DIGESTS = [
    "5b34bfdc2f984761de6379a04bb6f11d0f043d233d079dd488fceb43933ee934",
    "8ac3bc51510c431f7e3835916b868c442b0901200094776d897fcb0322b10e02",
]

EVENTS = {
    "grid": [
        769, 406, 770, 422, 422, 423, 423, 424, 424, 427,
        429, 433, 435, 437, 538, 770, 679, 373, 504, 384,
        384, 385, 385, 386, 386, 389, 390, 393, 394, 396,
        444, 760, 373, 658, 384, 384, 385, 385, 386, 386,
        389, 390, 394, 395, 396, 522, 735, 405, 597, 421,
        421, 422, 422, 423, 423, 426, 428, 432, 434, 436,
        510, 654, 406, 655, 422, 422, 423, 423, 425, 425,
        655, 655, 655, 626, 373, 627, 384, 384, 385, 385,
        387, 387, 627, 627, 627, 626, 373, 627, 384, 384,
        385, 385, 387, 387, 627, 627, 627, 627, 652, 405,
        653, 421, 421, 422, 422, 424, 424, 653, 653, 653,
        653,
    ],
    "acceptance2": [
        1430, 1419, 1486, 1472, 1474, 1459, 1540, 1528, 1371, 1361,
        1481, 1470, 1450, 1434, 1567, 1556, 1432, 1420, 1508, 1495,
    ],
    "handoff": [
        671, 719,
    ],
}


def _params(technique, variant, fault=None) -> SimParams:
    latency, policy, processing = variant
    return SimParams(
        source_host=Host("a", checkpoint_fixed_ms=40.0,
                         checkpoint_ms_per_kib=8.0),
        target_host=Host("b", restore_fixed_ms=20.0, restore_ms_per_kib=8.0),
        link=Link("a", "b", latency_ms=30.0, bandwidth_kib_per_s=512.0,
                  jitter_frac=0.2),
        workload=WorkloadSpec("Poisson", 120.0, 2500.0, seed=7),
        processing_ms=processing, pause_ms=3.0, continuation_ms=3.0,
        technique=technique, trigger_ms=TRIGGER_MS, policy=POLICIES[policy],
        seed=11, fault=fault, delivery_latency_ms=latency)


def grid():
    """Yield (label, SimParams) for every golden cell, in a fixed order.

    Per technique and variant: no fault, a crash before the trigger, a crash
    after the fault-free migration ended, and a crash at the start and in the
    middle of every phase the fault-free migration went through.
    """
    for technique in Technique:
        for variant in VARIANTS:
            ref = Simulation(_params(technique, variant)).run().record
            faults = [None, FaultSpec(at_ms=TRIGGER_MS - 100.0),
                      FaultSpec(at_ms=ref.completed_at + 100.0)]
            for span in ref.phase_timeline:
                faults.append(FaultSpec(phase=span.name))
                faults.append(FaultSpec(phase=span.name,
                                        offset_ms=span.duration_ms / 2))
            for fault in dict.fromkeys(faults):
                label = f"{technique.value} {variant} {fault}"
                yield label, _params(technique, variant, fault)


def acceptance2_cells():
    """Yield (label, SimParams) for test_acceptance_2's migrations at seeds
    0-9, each technique in turn, with triggers drawn from the same generator
    in the same order, so the values match that test's first 20 cells."""
    src = Host("hs", checkpoint_fixed_ms=20.0, checkpoint_ms_per_kib=32.0)
    tgt = Host("ht", restore_fixed_ms=15.0, restore_ms_per_kib=32.0)
    link = Link("hs", "ht", latency_ms=10.0, bandwidth_kib_per_s=2048.0)
    rng = random.Random(20260821)
    for seed in range(10):
        for technique in (Technique.MS2M, Technique.STOP_AND_COPY):
            trigger = rng.uniform(1.0, 9500.0)
            yield f"seed {seed} {technique.value} {trigger}", SimParams(
                source_host=src, target_host=tgt, link=link,
                workload=WorkloadSpec("Poisson", 50, 10_000, seed=seed),
                processing_ms=1.0, pause_ms=5.0, continuation_ms=5.0,
                technique=technique, trigger_ms=trigger, seed=seed)


def handoff_cells():
    """Yield (label, SimParams) for two MS2M cells whose handoff waits at
    every step that can wait: seeds 0 and 8 of the grid's workload, with 0.7
    ms delivery latency, handoff threshold 3 and 7 ms processing."""
    for seed in (0, 8):
        params = _params(Technique.MS2M, (0.7, "threshold3", 7.0))
        yield f"handoff seed {seed}", dataclasses.replace(
            params, workload=dataclasses.replace(params.workload, seed=seed))


def _canon(x):
    if isinstance(x, enum.Enum):
        return x.value
    if dataclasses.is_dataclass(x):
        return tuple((f.name, _canon(getattr(x, f.name)))
                     for f in dataclasses.fields(x))
    if isinstance(x, dict):
        return tuple(sorted((k, _canon(v)) for k, v in x.items()))
    if isinstance(x, list):
        return tuple(_canon(v) for v in x)
    return x


def run_cell(params: SimParams) -> tuple[str, Outcome, int]:
    """(contract digest, outcome, events fired) of one cell."""
    s = Simulation(params)
    res = s.run()
    m = s.manager
    ctl = tuple(s.broker.queue(q).published_total
                if s.broker.has_queue(q) else None
                for q in (m.q_mgr, m.q_src, m.q_tgt))
    blob = repr((_canon(res.outputs), res.final_state, _canon(res.record),
                 _canon(res.mode_log), ctl))
    return (hashlib.sha256(blob.encode()).hexdigest(), res.record.outcome,
            s.clock.events_processed)


CELL_SETS = {"grid": grid, "acceptance2": acceptance2_cells,
             "handoff": handoff_cells}


@functools.cache
def pinned(kind: str) -> tuple[tuple[str, str, Outcome, int], ...]:
    """(label, contract digest, outcome, events) for every cell of a set,
    run once per test session."""
    return tuple((label, *run_cell(params))
                 for label, params in CELL_SETS[kind]())


def scenario_digest(path: Path, tmp_dir: Path) -> str:
    out = tmp_dir / f"{path.stem}.csv"
    export_csv(run_experiment(load_scenario(path)), out)
    return hashlib.sha256(out.read_bytes()).hexdigest()


def test_shipped_scenario_reports_match_golden(tmp_path):
    got = {p.name: scenario_digest(p, tmp_path)
           for p in sorted(SCENARIO_DIR.glob("*.json"))}
    assert got == SCENARIO_DIGESTS


def test_fault_grid_matches_golden():
    cells = pinned("grid")
    assert len(cells) == len(GRID_DIGESTS)
    mismatched = [label for (label, digest, _, _), want
                  in zip(cells, GRID_DIGESTS) if digest != want]
    assert mismatched == []
    assert {outcome for _, _, outcome, _ in cells} == set(Outcome)


def test_acceptance2_cells_match_golden():
    cells = pinned("acceptance2")
    assert len(cells) == len(ACCEPTANCE2_DIGESTS) == 20
    mismatched = [label for (label, digest, outcome, _), want
                  in zip(cells, ACCEPTANCE2_DIGESTS)
                  if (digest, outcome) != (want, Outcome.COMPLETED)]
    assert mismatched == []


def test_handoff_cells_match_golden():
    cells = pinned("handoff")
    assert len(cells) == len(HANDOFF_DIGESTS)
    mismatched = [label for (label, digest, outcome, _), want
                  in zip(cells, HANDOFF_DIGESTS)
                  if (digest, outcome) != (want, Outcome.COMPLETED)]
    assert mismatched == []


def test_handoff_cells_reach_the_deferred_paths(monkeypatch):
    """Each handoff cell freezes a busy target, asks a busy source to stop
    and finishes a replay that is behind the watermark."""
    seen = []

    def spy(name, waits):
        method = getattr(ServiceInstance, name)

        def wrapper(self, *args):
            seen.append((name, waits(self, *args)))
            return method(self, *args)

        monkeypatch.setattr(ServiceInstance, name, wrapper)

    spy("freeze_replay", lambda inst, _on_frozen: inst.busy)
    spy("request_stop", lambda inst, _on_stopped: inst.busy)
    spy("finish_replay", lambda inst, watermark, *_:
        inst.state.last_processed_id < watermark)
    for label, params in handoff_cells():
        seen.clear()
        assert Simulation(params).run().record.outcome is Outcome.COMPLETED
        assert sorted(seen) == [("finish_replay", True),
                                ("freeze_replay", True),
                                ("request_stop", True)], label


@pytest.mark.parametrize("kind", sorted(CELL_SETS))
def test_event_counts_match_golden(kind):
    cells = pinned(kind)
    assert len(cells) == len(EVENTS[kind])
    moved = [(label, want, events) for (label, _, _, events), want
             in zip(cells, EVENTS[kind]) if events != want]
    assert moved == []


def _print_events(per_line: int = 10) -> None:
    print("EVENTS = {")
    for kind in CELL_SETS:
        counts = [events for *_, events in pinned(kind)]
        print(f'    "{kind}": [')
        for i in range(0, len(counts), per_line):
            print("        " + " ".join(f"{n},"
                                        for n in counts[i:i + per_line]))
        print("    ],")
    print("}")


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        print("SCENARIO_DIGESTS = {")
        for p in sorted(SCENARIO_DIR.glob("*.json")):
            print(f'    "{p.name}": "{scenario_digest(p, Path(tmp))}",')
        print("}\n\nGRID_DIGESTS = [")
        for _label, digest, _, _ in pinned("grid"):
            print(f'    "{digest}",')
        print("]\n\nACCEPTANCE2_DIGESTS = [")
        for _label, digest, _, _ in pinned("acceptance2"):
            print(f'    "{digest}",')
        print("]\n\nHANDOFF_DIGESTS = [")
        for _label, digest, _, _ in pinned("handoff"):
            print(f'    "{digest}",')
        print("]\n")
        _print_events()
