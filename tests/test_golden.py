"""Golden contract: committed SHA-256 digests of what the simulator produces.

test_acceptance_6 only checks that two runs agree with each other, so a change
that moved every number the same way would still pass it. The digests below
are fixed: any change to a report byte, an output, the final state, a
MigrationRecord field, a mode transition, the number of simulated events or
the number of control messages on any control queue fails here. Besides the
shipped scenarios and a fault grid, the cells pinned are the first ten seeds
of test_acceptance_2, with its triggers.

The digests are part of the contract and change only with a deliberate
behaviour change. `PYTHONPATH=src python tests/test_golden.py` prints the
tables for pasting back in.
"""

import dataclasses
import enum
import hashlib
import random
from pathlib import Path

from migsim.config import load_scenario
from migsim.harness import export_csv, run_experiment
from migsim.migration import HandoffPolicy, Outcome, Technique
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
    "c1b165e7812ef2b32b7d791d97137bff4eb58e2d4a55485b4987408008bf6d81",
    "0fa69cdcafc799470c17a93d88e7e2e974b23812e11afab8ea6ef769b3dd5d7b",
    "98d283e9e76608b22bed7ab35a65d3e0e6ef1beee9d38fd4c76934d7f13206c6",
    "f614916895f7c578766c49060a3c568bdaeac5e16bd0cd47a2ffe772d0ee3cf0",
    "eb2bec4065628d39edada32bc4723e56c6bfdae56b8b90dce5b720c381d1d459",
    "da5043b4a87d36a5283439a079cfc79531126ed021adb2c2f6f7093c54247b4d",
    "2c346e72d10d9b6c9c173d7b93ff0f9bad4c1eec3899a08c656cf19999b55f40",
    "926d0af5a7487c3dc64146cf0de060f6a324edee752af635a4e8e1fcf3255d30",
    "a16a6592b57ba42ab64c7bc72dc56620bc321e3af9f0d0c32df366a15822cd8c",
    "1d9d4f77d98bec9e28f563a2a1498bd64cd062bd0d9f9c8dbf8c0118f2b36e9d",
    "0e8882bf78ce46f8eef0a937dbf47d9ebbbf7c1db6cd0f785497b0db49db712a",
    "b9b5a6d4e29276c8cbf45d47a46aeb5ea51d34c25fcbebd5a965b682519529fe",
    "3e58e6a4fec1fd425f66ff0b0993905ddae82efa45415c8176489de3845c8c6a",
    "a2b5bff857ca1ea02d97a568da04be64cbc016030fd54e1f8005978f03b82257",
    "6b92dc6ee0063f8a16ab0e5c809e99830f8627898093de378b735274e8f75265",
    "98d283e9e76608b22bed7ab35a65d3e0e6ef1beee9d38fd4c76934d7f13206c6",
    "bfd6ade082bcb39195b977b8d27ca39f5fede48d4d3f8b36c10aa69c5f956c99",
    "a63f4c7d5c51b504abab2f978e27f6876f927253ca60995e8191a389df42f7ad",
    "c2bd8d068b19765b6cab3a2244d7ee2c606318720721c3b686c1d8b33333d7a9",
    "51613e08b4017ce5ad9cbc0aa4fd2f0a8b933b0fae2f7eb00e5e6b059633d67f",
    "38fe607be08d5cb904ec0cecda0e7c2c95254c48c4fff1c8b0cfaa28a6a0d19f",
    "7ee2eaccca14a741c97012ec245c642f8c219cf9e98694e04042f9f3b52f38af",
    "cfa40ce00b8010daa087743cc11ca1a45bf303fd0d0faebb097eb904ab78e65a",
    "2547f06a94a41e11997380b59c1331e372b0ec7f1fcfd30d958aca525c5a685c",
    "01b5b74a9582c323cf942360246f9b95f041033fcba016d26c66385752cf7984",
    "7ccb6f9458d0320874191c7cdc2b21656f09d38b1f3eafc28048ddfca0eb2993",
    "74465a4bfab5b969d47fc02922a0a72a54ff7a66f674cb02364403fce0e10b6b",
    "849f480b204935ff9293510c0220b51d3edc355c366900fee28842b0641b5b59",
    "09e267188e2c390a3a10ccb739f1effc6d8e24a2666afba83bd3e53e977172c7",
    "29cf63b6a131d66ddfe623c08dd6e7c9a288f5b0097c990f03d2aa8306fadf7b",
    "7b0b86102eba051f00cc90aea71dc56bf501f9f92c02986128fed4658b30f4bc",
    "48aaa4cb7e3da25371ae3b238840f2e5b3bb3dda8318bcdc2eb626ab1d8cd160",
    "a63f4c7d5c51b504abab2f978e27f6876f927253ca60995e8191a389df42f7ad",
    "c7344290803be013112359d22c9cdf33eb35a6b66402c98420efcf20c0153b7d",
    "b180b83f7b203ddae6c945edad5386c4bb6e48c678ac55b2f257e221097234db",
    "9412e197345e9e011ff1bde8c883b136cbc5113472b286d2989ab1c89d60d47b",
    "925b05742724d9bd8674fe8785b906ebd325c169cdfe3cdfd18a1a42cd0ab113",
    "94e61fa0f98a8658effc60cdba090740076395ea5c0777bc49a54df16abbb604",
    "664b75abe79112a8a17f0863160e397f5e5462f0f5859c0c7bca62ce3ca1bee4",
    "275f79c70c947743acb0aaacc10fb2fb17fc0c935b44646eba2b46dab78ef313",
    "e27babeaacdc477818a90bff06b3f2e243fcc932bbeb313ca6b9b39f4e5f283f",
    "bc0093f23157eccbb0634f26d1d19262daddedddf6cdf1563f4140401d4718c4",
    "2ac678fd1033513caa5ea154ac5b29c9bd0837f67ecb27eb5308bda5caf3687a",
    "aac0d0355c6deb2618df92de01959caf201b5c0d2df1b66b69cf8cf153aacfbc",
    "6e0f100ad218100e500e26bf0c05ebd7140ad7801033d6fef73b95f3ecd9c1c9",
    "3e24e0d5a16d3a0ec4c1f40896e1b7ea647c677e193faac4478047353d92c53c",
    "3ba1f00a12d32dfdf5b8acf1a723897dd9d1fa219a7db4781a1299b9daf4a4db",
    "0fa69cdcafc799470c17a93d88e7e2e974b23812e11afab8ea6ef769b3dd5d7b",
    "a1bc34be0f0ccec1666537d7b30eefd6a85ae4fb0b460e2215e2eed8de14ac2b",
    "4d6627ad6f51bbd74bd7af9bf48fca7a467dcd3d354807d80aa540f0a5b14ed6",
    "8d67ecfcd0030bf4b59fdbc93ecd2b2d217e927ac491a2d4cf9094975675cfb0",
    "afaf4c887d833a6f623c646d6b03aa0130b47fa47fcc64442085acd2530cf998",
    "a4d0efa2d3d6f9674b45c754e041ae39805a9d56a1536615bcf8d81196d77bf5",
    "90dbd857406acf0085bdb20302ac0609864cebd927624632b6982d5d770dbd82",
    "3fb2410eea9c7f233e73ff2f4384bcc2fa251e0fe261ac466520d3c3d2f1e969",
    "fe47ef1d1df2ed102e441d25311986ced1ecbd3f751c9541198693c042c6acf9",
    "7df56591c0b89589ae2e2563d64b57c2b1b46a3eb0d96e18c392d3f8b93269b8",
    "45225b98402676bef8bfcff2b45832c5b2f75f6127c3365579c321effcc9a597",
    "7399fc91dd49b8f5508bc731412239db44fe5b0919b794fd737c925569e60475",
    "19f6f779de5e3f3040b28e4282d684934efd05109ed97f0b3c27052da10ede4f",
    "9c85d661088a0d613364befa069f37f8a20c4eea25f5d3117e0d7a3063a6afd6",
    "b3b261de6fa8c9ea1e3eaa9dc522e88bb81074c76739c683b87b1c27e31f2d69",
    "ade04da9083a69295ff4483b0673f397d79c124e1ea8fffe8a67d55198095251",
    "934f1db4faae594502829a972bccf03dbefc2114a4e8a80cc1a1611d0d42efad",
    "99a57a7513a88a05a9278506585efca388eb15e54c9180e4aaddc5157743448b",
    "88ca1557ab61068f0c8f5ac9ed702cebda973be28af655c8d8c9e45da00a1f87",
    "99fb90afadc93a5e90c3992ea43282b6dbf601bcf474ed5b2482530bcffd6b32",
    "7297bdbd2ce0af4a646c219f5e6c56c9dfefaef2b3c0081cad643230c727ba27",
    "0667b8a8cc0b6a2d756fc630c9368cc2545982acf35bb916dd01b66971baf763",
    "5fe18e5f72ab68ece2d24a23ba5985b1512b9320b83d08f90b206f730c5832a5",
    "934f1db4faae594502829a972bccf03dbefc2114a4e8a80cc1a1611d0d42efad",
    "934f1db4faae594502829a972bccf03dbefc2114a4e8a80cc1a1611d0d42efad",
    "934f1db4faae594502829a972bccf03dbefc2114a4e8a80cc1a1611d0d42efad",
    "aa95f1da34fe589ef42c8e907389d2b47947edf5e8e892f102e516df16278317",
    "89e6246eb83b3e9a845e908ecaa96bbd5e7e8cf6e1a3b2f5551f8a766edaf6db",
    "84ae4b7ef466619baf2ed7760528144313acb1a318d43dd01ea049941a768411",
    "e858f9d3bf4cebef8d45a3fbcaccf4cca08d20b7320ea8d7e701fa58daabcd32",
    "2429180b7939bf3deee1e5724992c4db9fb8c4e9b31c0b00fcd8052b23c874bf",
    "e21944422e2c2527bcc80d6f1dab085e6757fd3a39a637893df5b7c1d2de0fd8",
    "df123ad2d64322537f49491f13628d084e6361048b6bfbbfb75ff9bdcc041c71",
    "fa7eebd551d76ac6e565e7f9416b399ff01c0d7e08c32ebb100e3c361860053c",
    "63b5d4846be8cf75a208a1b5386f8d97eb2b45394b13371525d83e06d3ed4a68",
    "84ae4b7ef466619baf2ed7760528144313acb1a318d43dd01ea049941a768411",
    "84ae4b7ef466619baf2ed7760528144313acb1a318d43dd01ea049941a768411",
    "84ae4b7ef466619baf2ed7760528144313acb1a318d43dd01ea049941a768411",
    "7659b2861db16d42650ab08f0b17e5e59f0fd9082cda55135b7c23759017ec0a",
    "89e6246eb83b3e9a845e908ecaa96bbd5e7e8cf6e1a3b2f5551f8a766edaf6db",
    "5283168bc51acf14696e6e6b5479f260e64158792a75a8bf3c2c64f5b6ee557c",
    "3071dd1f94850adfff53132a4266f8ae30ab5c9c0d72158deff2056724cb1664",
    "99e5d316c57999793321ea289cddfbb36e4d87dbca90b96480a24a63b79c4987",
    "2ecdf9a0067b6dfc1c9dde275ad7435c44db75ac47084f7170ff197d031794d4",
    "4740a23a6bf6e419fb9334be01b737b726b85614ccbb627c99f9c76ce050e893",
    "4fb6c4a7049da809fa20a90e627fa75491f8b5806fa23fa5cf78bb0356fb847a",
    "16e18dbc194b1396f15ce2ec782818c877371a76e42be932b89a0077d564c097",
    "5283168bc51acf14696e6e6b5479f260e64158792a75a8bf3c2c64f5b6ee557c",
    "5283168bc51acf14696e6e6b5479f260e64158792a75a8bf3c2c64f5b6ee557c",
    "5283168bc51acf14696e6e6b5479f260e64158792a75a8bf3c2c64f5b6ee557c",
    "5283168bc51acf14696e6e6b5479f260e64158792a75a8bf3c2c64f5b6ee557c",
    "e8a11fe729a4e307c039293b6d331ab10fed756dffa579e5c049a9923731a8ea",
    "ade04da9083a69295ff4483b0673f397d79c124e1ea8fffe8a67d55198095251",
    "b8fffe951059da9deb9194c82952f63fa945218a2fe9f6226da1e3b92dcb727c",
    "8f811ca9fb706d3a8aff710d7999e8e16806b3e4d5e637debd67b92c0e54993c",
    "6e55920964d63eacd5c8daa23dca5219da87c6fc06fb804d34fd9e650d1a0012",
    "4b1307e1eee74d2d0c757d01ac3e302dcb0163c08250b4d353beb180e33df829",
    "cd7ace5dd8f04ec8f652554a5a5e12d9faa8c4c9707e809d74ac97be422ba99e",
    "e3d495efd0380ced2011962aa3e08ee394f0c6a8ec6be3bda592db931c09fc70",
    "17acf4f91df4fe8b461d67f520c946e69f7fffbfc9661d96f126f4b035eb0ed5",
    "b8fffe951059da9deb9194c82952f63fa945218a2fe9f6226da1e3b92dcb727c",
    "b8fffe951059da9deb9194c82952f63fa945218a2fe9f6226da1e3b92dcb727c",
    "b8fffe951059da9deb9194c82952f63fa945218a2fe9f6226da1e3b92dcb727c",
    "b8fffe951059da9deb9194c82952f63fa945218a2fe9f6226da1e3b92dcb727c",
]


ACCEPTANCE2_DIGESTS = [
    "5d27abeb44a65ac635037c883c5ae23bf3da67a0c8ce5fe039ef5286d3b53de9",
    "4a4bbc223a976ab9a2baae4e124f6f74a0f890bb4bec80fcb9e662ed78850897",
    "23e430232bf07cc5f593f011d2d7dd13e84fab3e6e6f7d4d65ec5ac61a4594c7",
    "9df298a48556cb875648efea21cc926b3a8f4d37df742321ecb5bd1348e5245a",
    "12a1c4b8f86f5d516ed97a3404726083990a1a1ef4114ae521b9f41246a2f839",
    "70191102614af457f20111f8070ef3d8b4ba1b387e63cf3b675df80506a0268d",
    "3d7c61030bc11a5865508bf2ec7b39e2354b17db3484de5eccf1613a9ad0df08",
    "b80b5804cc6e45b24bab23d7d4c8b141e14f9ae75b63e98133349a3efcce97a5",
    "66892cdf0638187c732e2dfe042427a6538a1ab01495bb3900a2042e2644d86b",
    "734b606ba70d92805c74db4b63ec92af000b7b2a425c52743ec10a389efa7ab8",
    "2423107d16b77cd846a82aa5bb5f04de708141799e389c03c59e3a8311a1ea1d",
    "9cb9aa4e7297b743275a4583222cd07573da04851fca375eefba4f5d698f422e",
    "36be5e2b8cffbcec71a1121a128f0531129afcd45c877fd3a76388c9c6c57395",
    "29853d382d0b8654cc24bf25643fdb698e01c7cc9063130662dc88f0b0cdb974",
    "465a4f2f349497e82424fb17b2c5c1a7f029365fc650e8f35685fb0ae6046058",
    "278ef43ff3210b07d15c655f085af63a343fd2b49bbaf7c2b0913690cf67e8d3",
    "db5a80ed40f1aba043c68f8ec7ebc812bc0fbf40b8b63b7c0a45ffa64ec12ed5",
    "d2cd90eec955a96f3ccfef3afa66fac6d757c7757f4f433140519d944bbcf9e4",
    "5b2dd86f5bb4d48b9f53dbe9e097776379a993186d298058ec1f2cd658990ecb",
    "d2645f06e7c9dd732b247bf2d39ba723f5fb45e6e2466a11d1c87b90af1d3337",
]


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


def cell_digest(params: SimParams) -> tuple[str, Outcome]:
    s = Simulation(params)
    res = s.run()
    m = s.manager
    ctl = tuple(s.broker.queue(q).published_total
                if s.broker.has_queue(q) else None
                for q in (m.q_mgr, m.q_src, m.q_tgt))
    blob = repr((_canon(res.outputs), res.final_state, _canon(res.record),
                 _canon(res.mode_log), s.clock.events_processed, ctl))
    return hashlib.sha256(blob.encode()).hexdigest(), res.record.outcome


def scenario_digest(path: Path, tmp_dir: Path) -> str:
    out = tmp_dir / f"{path.stem}.csv"
    export_csv(run_experiment(load_scenario(path)), out)
    return hashlib.sha256(out.read_bytes()).hexdigest()


def test_shipped_scenario_reports_match_golden(tmp_path):
    got = {p.name: scenario_digest(p, tmp_path)
           for p in sorted(SCENARIO_DIR.glob("*.json"))}
    assert got == SCENARIO_DIGESTS


def test_fault_grid_matches_golden():
    cells = list(grid())
    assert len(cells) == len(GRID_DIGESTS)
    outcomes = set()
    mismatched = []
    for (label, params), want in zip(cells, GRID_DIGESTS):
        digest, outcome = cell_digest(params)
        outcomes.add(outcome)
        if digest != want:
            mismatched.append(label)
    assert mismatched == []
    assert outcomes == set(Outcome)


def test_acceptance2_cells_match_golden():
    cells = list(acceptance2_cells())
    assert len(cells) == len(ACCEPTANCE2_DIGESTS) == 20
    mismatched = [label for (label, params), want
                  in zip(cells, ACCEPTANCE2_DIGESTS)
                  if cell_digest(params) != (want, Outcome.COMPLETED)]
    assert mismatched == []


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        print("SCENARIO_DIGESTS = {")
        for p in sorted(SCENARIO_DIR.glob("*.json")):
            print(f'    "{p.name}": "{scenario_digest(p, Path(tmp))}",')
        print("}\n\nGRID_DIGESTS = [")
        for _label, params in grid():
            print(f'    "{cell_digest(params)[0]}",')
        print("]\n\nACCEPTANCE2_DIGESTS = [")
        for _label, params in acceptance2_cells():
            print(f'    "{cell_digest(params)[0]}",')
        print("]")
