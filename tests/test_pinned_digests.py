"""Pinned sha256 digests of every benchmark workload, end to end.

The benchmark's own gate pins only the ``apply`` output. These digests also
pin the serialized artifact, the encoded train table and the inversion, so a
change meant to keep every output byte-identical shows any drift here. The
workloads are generated at a quarter of their benchmark size to keep the run
short. Re-pin only for a change that is meant to alter an output, and say so
where the change is described.
"""

import hashlib
import itertools
import json
import random

import pytest

import parsemunge as pm
from parsemunge.importance import TASK_CLASSIFICATION, TASK_REGRESSION
from parsemunge.infill import CONFIG_KIND_NAMES
from parsemunge.tidytable import TidyTable
from perfbench import workloads

from .helpers import random_text_cell

SIZES = {
    "parse_highcard": {"rows": 2_000, "train_pool": 1_000, "test_extra": 100},
    "wide_roundtrip": {"rows": 4_000},
    "unseen_drift": {"rows": 2_500, "train_uniques": 500, "test_uniques": 7_500},
    "importance_prefix": {"rows": 1_250},
}

# (workload, seed) -> digests of (artifact, encoded train, apply of the
# deserialized artifact on the test table, invert of that output)
PINNED = {
    ('importance_prefix', 7): (
        '3afad751342ad94ef5498c87cf4e0ac16fb8f0445aaa8cdbe75a229c40920bce',
        '7d61285f0808b66b36d2dafd7d0e8fc4dd9f3cb84b31f88e1e6a0f8699c2fcd5',
        '41f5d5c9cb3d215fa59f8cd6e13629971227a46493c41aee99e8098728eda2f5',
        'e45d53bf6ba50621bf9173845a49e3ad0e6e3b043b3cfdea155d3a2a0ed0de02',
    ),
    ('importance_prefix', 13): (
        '6933ffe8175b7f9347bb02e88c361da473ef92dd1af0cf647de69ed3920a621a',
        '4d288ba1731f4625432d12e94175eb6dff232cba3be867497d757b3f7f5b92aa',
        'c13a5b899648e31ced49afd1a51dd74e956f265004d44bfa58442e07d51afc99',
        'eae94d5b62639ecf967a32bf45eb6ee7ba859472507898f96dba9a79b55ebb4a',
    ),
    ('parse_highcard', 7): (
        'ffcf27e8fbdef4d800c1e42298b2c119ea47ade9cdc3cf130281022e7aa330df',
        'b35a7eaebd4b24e1955bde9173048ff571ee74cb4ecfdfafca7810238335a409',
        '62f59fc112f57cfb07654e30e1adb2a3b189293ef5c394c7ebcaa91af12673e0',
        '6f6ffb2f544db77e10521bdb60138d855d667727542bf14c361d2ad45ce1551b',
    ),
    ('parse_highcard', 13): (
        '35af583a812005e786adc9c4a9cf1e9c70037d8356a772f69e0fe4ef993ab301',
        '6225d2a9feea8e089274cb773b22d6dce759b3d5ee5dc2dff7029e047de7df89',
        '90526c96a3915d54996ae672df78e50b93ac86ddaa07e39af8e0dcca81be3047',
        'aefc68cc82f20962c301127138ae8c741e97763bff908eb4bd460f7310ebb27b',
    ),
    ('unseen_drift', 7): (
        'ebdade853ef202f48514e721eb01ddf9d265ce26f4b2e505e1b9e58ebf6b4cbb',
        '02ed697f1b0287dfc3bcfb19f5b6c27ab9038bbf4deef4ce9d037127448e913a',
        '8ef27258ea8f47d7153eb353d4ce1ad10574534d9c6f9907b3063f2ee18ae969',
        '7c7e8f09caf0436e987d7998f7579faf4af060fbb5fe855add846dc7f77d0e3c',
    ),
    ('unseen_drift', 13): (
        'a4702a6c2eb1df9e71b6c4cc19b241005019c7d7e7c5650f5b40be36f9db9b8d',
        '37fce3bdc38866ef24eac2fda6af082ede3b31921ef287e6b2be5cb1c1c0ace6',
        '36703d66b8afc15c43cbaf48d929498df04280087d76b306bb6b44e44b2eba1c',
        'f4bc9450973615957faa28261d836566cc2fd20775c066e709759a0d676e5a44',
    ),
    ('wide_roundtrip', 7): (
        '7472afb0b79d6f68c2c6dd4ff4aa71505d717866d83317236ecdbd6cde467f84',
        '0ef95be65df89315d49f6d9d9acd56e063ff9ba5d3e53357b980911fd4dfb36d',
        'b8a0f01ad136564b733419052eafcb768f5061d1abc6cd91af8d23a93abaf8b3',
        '6790627159aba519ad8285acf3765f334b4036156fd46ab164974d78f7ff30aa',
    ),
    ('wide_roundtrip', 13): (
        '1b7561e46d2eb15d9f550ff47700eb55109c24fc349bfdef92cf9131541f1a73',
        '779201a8deb57ff1a4278b037606d553a773498f793e7fa0964f546adc85195c',
        '2f735c91c7fa779ec5d168cf45b297042cceef4928e0d95b3e13808812da6c89',
        '1bdbf099ac5f11845812284bb05ae5f4c0e154b720ad3867315b9fd0096a32d9',
    ),
}


def _digest(doc) -> str:
    text = json.dumps(doc, allow_nan=False, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _table(columns: dict[str, list]) -> TidyTable:
    return TidyTable(headers=list(columns), columns=list(columns.values()))


def digests(name: str, seed: int) -> tuple[str, str, str, str]:
    w = workloads.GENERATORS[name](seed, **SIZES[name])
    encoded, artifact = pm.fit(_table(w.train), w.assignments, opts=pm.Options(**w.options))
    blob = pm.serialize(artifact)
    applied = pm.apply(pm.deserialize(blob), _table(w.test))
    recovered, failed = pm.invert(artifact, applied)
    return (hashlib.sha256(blob).hexdigest(),
            _digest([encoded.headers, encoded.columns]),
            _digest([applied.headers, applied.columns]),
            _digest([recovered.headers, recovered.columns, failed]))


def test_every_workload_is_pinned():
    assert {name for name, _ in PINNED} == set(workloads.GENERATORS) == set(SIZES)


@pytest.mark.parametrize("name, seed", sorted(PINNED))
def test_outputs_match_pinned_digests(name, seed):
    assert digests(name, seed) == PINNED[name, seed]


# (workload, seed) -> digest of invert of the encoded train table as written
# by write_csv and read back by load_csv, which holds it as lists of cells
PINNED_CSV_INVERT = {
    ('importance_prefix', 7): 'adc2ac7e9a68e4da0a4ed2e869acb229cc9769989c0446df15ea6669936b3c0e',
    ('importance_prefix', 13): '371c0a4304145fa1ee5e503e3114b1b791fc3963fbc976e01dd54a4f92f85261',
    ('parse_highcard', 7): '574e0573e62867d43b8cc2b61c0d308afd389f6b94ef18daddd532cb136d25a1',
    ('parse_highcard', 13): '85fbcec598dba5e2cb142d84e677af3b6d82c39496e117556c52be3f0f31b54a',
    ('unseen_drift', 7): '8de7f475063d326fd35f792c1d9769f0d1f1dfceea40a38a5093942919d59adf',
    ('unseen_drift', 13): '397b45f31de30c7a7b4a38840b07efef606bef22498b829da1d0392872edc634',
    ('wide_roundtrip', 7): '016bbb391cc111a8a7875ec307f6fabc5bc2e7ef63af080d8d5ed2f7bbbec443',
    ('wide_roundtrip', 13): '38e7f7d7ef94019912bc89cdb45b7dd5c438da6daada6dd343993dba24935c6f',
}


def csv_invert_digest(name: str, seed: int, path) -> str:
    w = workloads.GENERATORS[name](seed, **SIZES[name])
    encoded, artifact = pm.fit(_table(w.train), w.assignments, opts=pm.Options(**w.options))
    pm.write_csv(encoded, path)
    recovered, failed = pm.invert(artifact, pm.load_csv(path))
    return _digest([recovered.headers, recovered.columns, failed])


@pytest.mark.parametrize("name, seed", sorted(PINNED))
def test_inversion_of_the_written_csv_matches_pinned_digests(name, seed, tmp_path):
    assert csv_invert_digest(name, seed, tmp_path / "encoded.csv") == PINNED_CSV_INVERT[name, seed]


# (workload, seed) -> digests of the permutation_importance report JSON on the
# workload's importance rows: classification on its labels, and regression on
# integer-valued targets, whose sums are exact in any order
PINNED_IMPORTANCE = {
    ('importance_prefix', 7): (
        '7072019f2440c97e3a543341ab55652eb90970ac8d21bc9d89d7a30db9ce429e',
        '59b01f35c8b989e17d39cfa9be5198b105c1b0abbdbf83e949325a98562d4a04',
    ),
    ('importance_prefix', 13): (
        'a92ec8826f136446c98e07b40fdc93ac52e1134fe61cd1192a71468b3a679f9e',
        'c046bb0e66d69f65fd55388d1aada1091ea023723f19304a2917ad77e381b67a',
    ),
    ('parse_highcard', 7): (
        'cd1332ac40d1458f9c2fe1439aab7a1ce53e9120e48546e69e15132ad0b84ca0',
        '83bf3aa9445dc936daeb9009c5267c28a648ca1963bb8da23480802ad9e0646e',
    ),
    ('parse_highcard', 13): (
        'a234f2a17eb00b9fe76940038099bf5c9240e478dccb6fbe4d0c444e1909e256',
        '8738332fbbd2c6f69eee21cf80702748a48433e3815f36ccc3f16984ddf7569c',
    ),
    ('unseen_drift', 7): (
        '0cd80651f517955c5ab57732315a73ae1f7299d352884e6663ec6245eb2652da',
        'da7deff659594513fedf694f0c78dc78f8126437172f040abde07cbf17da9cd7',
    ),
    ('unseen_drift', 13): (
        'ea61bbf64f728cb513459ac0ce1ce468ad2409979654719ed37a039e88b0c7a8',
        '4bf732f013d733ab6cd3b0512cfca6604ab140791ede5fb80952b79635a3a9e3',
    ),
    ('wide_roundtrip', 7): (
        '22670f8fc8c855ead9884aa4f9d3683d4e4df97d84b41f48de3d0255d4a844f4',
        'd9e5c2c162aea4c9043d2d9557f0b869bab6c218ef70a33a9625ce4f4a90db59',
    ),
    ('wide_roundtrip', 13): (
        'df8e9f37280a46b89f472140c9807d010d596f6da04155d618b87719413e0c5e',
        'e36e79275b7f6b00b197fb21c9da887b454abe63debf637f7604de5bdcc82061',
    ),
}


def _integer_targets(table: TidyTable, labels: list) -> list[float]:
    """7 for the first label's class, plus the text length of every present
    cell in the row: integers that follow the features."""
    return [float(7 * (label == labels[0])
                  + sum(len(str(col[i])) for col in table.columns if col[i] is not None))
            for i, label in enumerate(labels)]


def importance_digests(name: str, seed: int) -> tuple[str, str]:
    w = workloads.GENERATORS[name](seed, **SIZES[name])
    n = w.importance_rows
    table = _table({h: col[:n] for h, col in w.train.items()})
    _, artifact = pm.fit(_table(w.train), w.assignments, opts=pm.Options(**w.options))
    labels = w.labels[:n]
    return tuple(
        hashlib.sha256(pm.permutation_importance(
            artifact, table, targets, pm.builtin_tree(task, seed=seed), seed=seed).to_json()
        ).hexdigest()
        for task, targets in ((TASK_CLASSIFICATION, labels),
                              (TASK_REGRESSION, _integer_targets(table, labels))))


@pytest.mark.parametrize("name, seed", sorted(PINNED))
def test_importance_reports_match_pinned_digests(name, seed):
    assert importance_digests(name, seed) == PINNED_IMPORTANCE[name, seed]


# One table for the infill pins: a numeric source with missing cells and both
# zeros, a numeric root over text, a numeric-extraction root, an aggregation
# root, a binary and a categoric source, and a source that is present at fit
# and entirely missing in the test batch.
INFILL_SOURCES = {"num": None, "numtext": "nmbr", "ext": "nmcm", "ser": "or19",
                  "flag": None, "cat": "onht", "gap": "mnmx"}

# (assigninfill kind, shuffle_train) -> digest of (artifact, encoded train,
# apply of the deserialized artifact on the test table)
PINNED_INFILL = {
    ('adjinfill', False): '561090b3bc72dbd3e7f759717dfb1ef64368cf51fcf9825658e013b1243f8176',
    ('adjinfill', True): '7126316229d2ff39ffc24314ab64a61544a6b080a1b1442e5a5ee097cb4b29e7',
    ('meaninfill', False): '252a9a879f260f2dcdac231356a3b78fcdad177a5c9a478feac2ca1a0b1b6939',
    ('meaninfill', True): '757fd6a407fe9c304a339f9bc8c98e8c20841a4b0428c68794cf47bfb8d69b38',
    ('medianinfill', False): '24649a20b3de1ed195b49dbf9d9af06278cc0bd88b0a6635f4203c52fb012ad3',
    ('medianinfill', True): '532be7066374d23275a97a7c205bf350e5761bc9510001db905132c08b9037b0',
    ('modeinfill', False): '2eab38d07471c2de5af5e2718b1386d40076df6e2a1cd4618c4a0fe2dda5d1e7',
    ('modeinfill', True): 'b999fcc7b52f87837d4d8b08b36cc3112239333fe5812b8210e297b05235052b',
    ('negzeroinfill', False): '815b7feb1086b5709a7c9ec889970553b5e827555a8267d3886a17c376a471b4',
    ('negzeroinfill', True): 'a0dcdd480f2f48df3eb56ce08b19bf2f19fdd080301f3f1535e8e00282213be8',
    ('oneinfill', False): 'ba245e97863f9834d99e3ad2e895a3adc822d940d840d5788df56fbd5a8d76ae',
    ('oneinfill', True): '10c50b9fc1cd46a5cd81f1ba28fb9e91a588f630eefac832c4ebe4abb34f278b',
    ('stdrdinfill', False): 'e5c656e1f70813298fafec093c612f2bc3911bd2c5d2b2768af21743702ff339',
    ('stdrdinfill', True): 'cc42e6d215e085e03a8f02c6158cb2a129fdc82fd74757186d419e3833b82e1e',
    ('zeroinfill', False): 'b910152f3c97dbe60f340969bd9a22694b0f98ad0bfe7db99e3fea6404b24c1d',
    ('zeroinfill', True): '65d8ddcf5785ec6402e92e8223b0c7f6a6a3d26b7c9da74217e6628ee411dbf0',
}


def _infill_tables(seed: int, rows: int) -> tuple[TidyTable, TidyTable]:
    rnd = random.Random(seed)

    def cell(make, missing: float = 0.15):
        return None if rnd.random() < missing else make()

    def table(n: int, gap) -> TidyTable:
        return _table({
            "num": [cell(lambda: rnd.choice([0.0, -0.0, round(rnd.uniform(-9, 9), 2)]))
                    for _ in range(n)],
            "numtext": [cell(lambda: rnd.choice(["n/a", "3.5", 1.25, round(rnd.uniform(0, 5), 1)]))
                        for _ in range(n)],
            "ext": [cell(lambda: rnd.choice(["zip 941", "none", "v2.5", "-"])) for _ in range(n)],
            "ser": [cell(lambda: random_text_cell(rnd)) for _ in range(n)],
            "flag": [cell(lambda: rnd.choice(["yes", "no"])) for _ in range(n)],
            "cat": [cell(lambda: rnd.choice(["x", "y", "z"])) for _ in range(n)],
            "gap": [gap() for _ in range(n)],
        })

    train = table(rows, lambda: cell(lambda: round(rnd.uniform(0, 1), 3)))
    return train, table(rows // 2, lambda: None)


def infill_digest(kind: str, shuffle: bool) -> str:
    train, test = _infill_tables(5, 240)
    assignments = {h: root for h, root in INFILL_SOURCES.items() if root}
    opts = pm.Options(seed=3, shuffle_train=shuffle, assigninfill={kind: list(INFILL_SOURCES)})
    encoded, artifact = pm.fit(train, assignments, opts=opts)
    blob = pm.serialize(artifact)
    applied = pm.apply(pm.deserialize(blob), test)
    return _digest([hashlib.sha256(blob).hexdigest(), encoded.headers, encoded.columns,
                    applied.headers, applied.columns])


def test_every_infill_kind_is_pinned():
    assert {kind for kind, _ in PINNED_INFILL} == set(CONFIG_KIND_NAMES)
    assert len(PINNED_INFILL) == 2 * len(CONFIG_KIND_NAMES)


@pytest.mark.parametrize("kind, shuffle", sorted(PINNED_INFILL))
def test_infill_outputs_match_pinned_digests(kind, shuffle):
    assert infill_digest(kind, shuffle) == PINNED_INFILL[kind, shuffle]


# Numeric extraction under every flag set. The workloads use only the default
# flags, so these pin the grammar branches (negatives, no commas, no decimals)
# the workload digests cannot see. Each source is fitted as an nmcm, nmc7 and
# nmc8 root with mean infill, and applied to a table that is mostly unseen.
EXTRACTION_ROOTS = ("nmcm", "nmc7", "nmc8")
EXTRACTION_FLAGS = [dict(zip(("allow_commas", "allow_decimal", "allow_negative"), bits))
                    for bits in itertools.product((True, False), repeat=3)]
_EXTRACTION_PIECES = ["12", "-3", "1,234", "7.25", "0", "-", ",", ".", "a", " b", "--8",
                      "5,", ",5", "1.2.3", "x-1,000.5", "-.5", "٣", "９", "²",
                      "9" * 40, "4" * 400, "3" * 309 + ".5"]

# (root, allow_commas, allow_decimal, allow_negative) -> digest of (artifact,
# encoded train, apply of the deserialized artifact on the test table)
PINNED_EXTRACTION = {
    ('nmcm', True, True, True):
        'cb69f140bd0c9eb50b403bd9b914caa5e8eddbcaebb48e6176cb3d23b3c4be4a',
    ('nmcm', True, True, False):
        'e5a7f535af3f06f811ce50e8f5b5587ae4e86b2c1368e50553ba75ba87e4095d',
    ('nmcm', True, False, True):
        '35236af56e462838e470e5227bc762bccc7b88887393d6c816dea18755ae7007',
    ('nmcm', True, False, False):
        '534e58030b67790a73b120860b2d60f7bf605bb0269515d5a244a4a87246e774',
    ('nmcm', False, True, True):
        '14bb1f4ac81eb7baedb191e6305c081d6cef0137ba1b15232108d1d5bbd59f08',
    ('nmcm', False, True, False):
        '5fcbf69c3353587677dcc787a7b92fb979b296fdaac9f3d8431cc7dd47d18654',
    ('nmcm', False, False, True):
        'e8c25686d086098f07b8880b50bbfd30793aaa3f9df1e07d66c518b25d8141c9',
    ('nmcm', False, False, False):
        '63568447edcdea806ec694cff5bfebbeae258e1ec21fc4a8c9d4cf384dd9c834',
    ('nmc7', True, True, True):
        'f66357e6227b10fb020434f1d4bc6a20fa32f5ff8c2a42219998238e9432c872',
    ('nmc7', True, True, False):
        'b736f64de31d7f3fad7f1a8eccbfe37953ae4c48ede37d79fe6cc60e907b36d7',
    ('nmc7', True, False, True):
        '6aaf7a965705d3832c46c477ffedc35c025b53a79c7d557c2f2ac1bdbde97f28',
    ('nmc7', True, False, False):
        '8e942486d51caf8db43c3eac00afa22db1f73fd251ffc9f0bb45e45e34658679',
    ('nmc7', False, True, True):
        '18b28329b355b4a21cde196d12cc1b9a13dc478f881e17c40eb0203956ee57f9',
    ('nmc7', False, True, False):
        '0e097e5c62f9db23165f4cf3bdc89a9d90c20e869fc8a224448e1b519b9d8ff8',
    ('nmc7', False, False, True):
        '3cdd671c57206addce7a1dbd8b4f5ec5ead8c0ac9852c86186eeb758151f145a',
    ('nmc7', False, False, False):
        'ac72d3af011a6d38e0b6c4651355faf9f91c0dbef6e025210b5a838fdd6f7af4',
    ('nmc8', True, True, True):
        'efef9b77cf860601240bc8ada4eac1d89243d8dac7b01022c07bd81c51b0725f',
    ('nmc8', True, True, False):
        '8ed27651659474eb28982cd5999041955347e811529d1defa33621fd068fa438',
    ('nmc8', True, False, True):
        '09ff377e6d589d6da3a795ae3c864095b424a2e2e3827dd8f58f39ed2d9a296c',
    ('nmc8', True, False, False):
        '8bb0ed1ea4606812cb64288e298828e9d33f8c7021c9488623e1612c9a0fb253',
    ('nmc8', False, True, True):
        '27a5e4fc894d2a68954263d6f07bd15a89fc42eac379b69db34ff3dbeb371edd',
    ('nmc8', False, True, False):
        '81a5049afe771ab7702523ec3fd858c5a4542b7c56d10afb77ebd21efcaaadf4',
    ('nmc8', False, False, True):
        '75a61430479a8862ccfaa740c13119d9da4315c2a49e1ffb5e22bfa0c3f47a12',
    ('nmc8', False, False, False):
        '20ec4ffdf3f6a983c4fdde55c3746d2a97a979d8ec5feb854e11fe4f6288298e',
}


def _extraction_tables(seed: int, rows: int) -> tuple[TidyTable, TidyTable]:
    rnd = random.Random(seed)

    def text() -> str:
        return "".join(rnd.choice(_EXTRACTION_PIECES) for _ in range(rnd.randint(0, 4)))

    def cell(pool: list[str]):
        r = rnd.random()
        if r < 0.1:
            return None
        if r < 0.2:
            return rnd.choice([1.5, -3.0, 1e20, 0.0, -0.0, 12345.0])
        return rnd.choice(pool)

    seen = [text() for _ in range(rows // 3)]
    unseen = [text() for _ in range(rows)]
    return (_table({"a": [cell(seen) for _ in range(rows)]}),
            _table({"a": [cell(seen if rnd.random() < 0.2 else unseen) for _ in range(rows)]}))


def extraction_digest(root: str, flags: dict) -> str:
    train, test = _extraction_tables(11, 150)
    opts = pm.Options(assignparam={"global_assignparam": flags},
                      assigninfill={"meaninfill": ["a"]})
    encoded, artifact = pm.fit(train, {"a": root}, opts=opts)
    blob = pm.serialize(artifact)
    applied = pm.apply(pm.deserialize(blob), test)
    return _digest([hashlib.sha256(blob).hexdigest(), encoded.headers, encoded.columns,
                    applied.headers, applied.columns])


def test_every_extraction_flag_set_is_pinned():
    assert set(PINNED_EXTRACTION) == {(root, *flags.values()) for root in EXTRACTION_ROOTS
                                      for flags in EXTRACTION_FLAGS}


@pytest.mark.parametrize("key", sorted(PINNED_EXTRACTION))
def test_extraction_outputs_match_pinned_digests(key):
    root, *bits = key
    flags = dict(zip(("allow_commas", "allow_decimal", "allow_negative"), bits))
    assert extraction_digest(root, flags) == PINNED_EXTRACTION[key]
