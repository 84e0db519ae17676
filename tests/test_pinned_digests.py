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
        '1d588aea98ceca85b6cfe18c10760ab5c9b95204ab833c29d6d02e923fca856a',
        '7d61285f0808b66b36d2dafd7d0e8fc4dd9f3cb84b31f88e1e6a0f8699c2fcd5',
        '41f5d5c9cb3d215fa59f8cd6e13629971227a46493c41aee99e8098728eda2f5',
        'e45d53bf6ba50621bf9173845a49e3ad0e6e3b043b3cfdea155d3a2a0ed0de02',
    ),
    ('importance_prefix', 13): (
        '7301330b35668d7565c5bb86b6c11726e157880862aac49c954bfc29cb701c4d',
        '4d288ba1731f4625432d12e94175eb6dff232cba3be867497d757b3f7f5b92aa',
        'c13a5b899648e31ced49afd1a51dd74e956f265004d44bfa58442e07d51afc99',
        'eae94d5b62639ecf967a32bf45eb6ee7ba859472507898f96dba9a79b55ebb4a',
    ),
    ('parse_highcard', 7): (
        '774ed31c0814f121c021f1281f52354e10d002c2da423d03f71b49ed0919842b',
        'b35a7eaebd4b24e1955bde9173048ff571ee74cb4ecfdfafca7810238335a409',
        '62f59fc112f57cfb07654e30e1adb2a3b189293ef5c394c7ebcaa91af12673e0',
        '6f6ffb2f544db77e10521bdb60138d855d667727542bf14c361d2ad45ce1551b',
    ),
    ('parse_highcard', 13): (
        '26d2b5faf8d8483b44bf265c8acaa5fed116ec5001a1a4c721e0de8036a6b8fa',
        '6225d2a9feea8e089274cb773b22d6dce759b3d5ee5dc2dff7029e047de7df89',
        '90526c96a3915d54996ae672df78e50b93ac86ddaa07e39af8e0dcca81be3047',
        'aefc68cc82f20962c301127138ae8c741e97763bff908eb4bd460f7310ebb27b',
    ),
    ('unseen_drift', 7): (
        '2205f334a373c06735d198d694ec11e52c490c04a0f149125de4bf2ea67e590d',
        '02ed697f1b0287dfc3bcfb19f5b6c27ab9038bbf4deef4ce9d037127448e913a',
        '8ef27258ea8f47d7153eb353d4ce1ad10574534d9c6f9907b3063f2ee18ae969',
        '7c7e8f09caf0436e987d7998f7579faf4af060fbb5fe855add846dc7f77d0e3c',
    ),
    ('unseen_drift', 13): (
        'fd9ffc6b01a67a68c9f26a5a873baa9a13db991dc7f052942c05a6ecdb69e25e',
        '37fce3bdc38866ef24eac2fda6af082ede3b31921ef287e6b2be5cb1c1c0ace6',
        '36703d66b8afc15c43cbaf48d929498df04280087d76b306bb6b44e44b2eba1c',
        'f4bc9450973615957faa28261d836566cc2fd20775c066e709759a0d676e5a44',
    ),
    ('wide_roundtrip', 7): (
        '90466d8caaaeec880fdc08aaf896c0b5ddefb269880a3f7ef7e4d9f22bac68f8',
        '0ef95be65df89315d49f6d9d9acd56e063ff9ba5d3e53357b980911fd4dfb36d',
        'b8a0f01ad136564b733419052eafcb768f5061d1abc6cd91af8d23a93abaf8b3',
        '6790627159aba519ad8285acf3765f334b4036156fd46ab164974d78f7ff30aa',
    ),
    ('wide_roundtrip', 13): (
        'fb305396fe98c1d90cfcc9dcdf84c8441d55ea2641da7d5cb7425b23b4331213',
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

# (assigninfill kind, shuffle_train) -> digests of (artifact, outputs: the
# encoded train and apply of the deserialized artifact on the test table)
PINNED_INFILL = {
    ('adjinfill', False): (
        '0395590d6cfa07780f1ea963a9ba6010bae9bd2cae457142be484b3771d7bbf1',
        '385015a121316e1556afa8425bdb949b68e8ae721758a2b8922889021597eb86',
    ),
    ('adjinfill', True): (
        '0395590d6cfa07780f1ea963a9ba6010bae9bd2cae457142be484b3771d7bbf1',
        '89540cc1c82d3e4de4ac476b6debdf7fbec59d20623af40240241ed76e3fc12f',
    ),
    ('meaninfill', False): (
        'e64d4197d723c119eae259250fc8e79470cf83d26b7557dc83ef304017cedf35',
        '9a5c177bb189a4c52d7e1d3aab08372c605fcb34010c76843bf801b93615264c',
    ),
    ('meaninfill', True): (
        'e64d4197d723c119eae259250fc8e79470cf83d26b7557dc83ef304017cedf35',
        'b125bcfacf511045f279b9607c377120948b3adb67a20ee3ec8b7f56cd33bb14',
    ),
    ('medianinfill', False): (
        '870299945d3d771807216f3802ecddd90d88446d93647c0e932e5c26e06b26c3',
        'f177b81cc2bea4639b3c948ce48ce6ac07c7cb2a19006c31ba391d28211b1069',
    ),
    ('medianinfill', True): (
        '870299945d3d771807216f3802ecddd90d88446d93647c0e932e5c26e06b26c3',
        '6a317aa5088420642bb46029d655a35d324e9e80096a180f865c73e2268e1411',
    ),
    ('modeinfill', False): (
        'cdfff3baa5eee258f059796e32b9847c92b889ddba47ec8145aff0b6b8d9e4bd',
        '8830430c01e0a33ea4691651387bd302ef3a7a5daa2ec9beb554b0a37fccff11',
    ),
    ('modeinfill', True): (
        'cdfff3baa5eee258f059796e32b9847c92b889ddba47ec8145aff0b6b8d9e4bd',
        'fcda6efd03f014b368e6aaf89b021afe146bcc41c150cd14c9b40407c4a778da',
    ),
    ('negzeroinfill', False): (
        'c22737a347dfb7574492549dbab986313d4e138acc1d300ccf80b84bc869d142',
        '2090aa538a6cd71289624226a8bd31f4d9f2e74153ac4e17f193a5f96db01820',
    ),
    ('negzeroinfill', True): (
        'c22737a347dfb7574492549dbab986313d4e138acc1d300ccf80b84bc869d142',
        '29e9df1d30feea59560278ea6a2df7fab660032e96ac239058867e01bb07f240',
    ),
    ('oneinfill', False): (
        'd1aeffa59cfe20d3911526d8c2237ea6930c71e1a409740ab74092c5d71554c4',
        '9b2673ce72937c40ac054b0b1b7ac292a69bbff70603fdb2247a010865d4b9c3',
    ),
    ('oneinfill', True): (
        'd1aeffa59cfe20d3911526d8c2237ea6930c71e1a409740ab74092c5d71554c4',
        'f886d6103a21e6e296f24e4f66805cf2d51c2dbcde706f53cd035a45430ecaa0',
    ),
    ('stdrdinfill', False): (
        'b8f0bbf576b5587ae4393d7b0e98ad410bbe8531c82454ad5e7957e539d01f21',
        '23c252bf241d5c4d89fe1cf6c9d37e2656ad38a152ff816a2b3d522751122f36',
    ),
    ('stdrdinfill', True): (
        'b8f0bbf576b5587ae4393d7b0e98ad410bbe8531c82454ad5e7957e539d01f21',
        'c7d49b7207c419bb614cc6ace8e87e436614b1dec9c8e84172e1f640877db1d3',
    ),
    ('zeroinfill', False): (
        '24a754a7410c78048950361657b5e63994f1fd7e66f89de3376b3a3f4871bb67',
        'fe2515582625dd1afe128c0215f7cef74f1680d02d0040a5110bd4ff457fc2b7',
    ),
    ('zeroinfill', True): (
        '24a754a7410c78048950361657b5e63994f1fd7e66f89de3376b3a3f4871bb67',
        'd591e3aa9be28c14ae90e47226ccd4846784854a2219873b65ebb0c5ba43bccd',
    ),
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


def _fit_apply_digests(train: TidyTable, test: TidyTable, assignments: dict,
                       opts: pm.Options) -> tuple[str, str]:
    """Digests of the artifact, and of the encoded train table with the apply
    of the deserialized artifact on ``test``: a change to the artifact format
    alone moves only the first."""
    encoded, artifact = pm.fit(train, assignments, opts=opts)
    blob = pm.serialize(artifact)
    applied = pm.apply(pm.deserialize(blob), test)
    return (hashlib.sha256(blob).hexdigest(),
            _digest([encoded.headers, encoded.columns, applied.headers, applied.columns]))


def infill_digests(kind: str, shuffle: bool) -> tuple[str, str]:
    train, test = _infill_tables(5, 240)
    assignments = {h: root for h, root in INFILL_SOURCES.items() if root}
    opts = pm.Options(seed=3, shuffle_train=shuffle, assigninfill={kind: list(INFILL_SOURCES)})
    return _fit_apply_digests(train, test, assignments, opts)


def test_every_infill_kind_is_pinned():
    assert {kind for kind, _ in PINNED_INFILL} == set(CONFIG_KIND_NAMES)
    assert len(PINNED_INFILL) == 2 * len(CONFIG_KIND_NAMES)


@pytest.mark.parametrize("kind, shuffle", sorted(PINNED_INFILL))
def test_infill_outputs_match_pinned_digests(kind, shuffle):
    assert infill_digests(kind, shuffle) == PINNED_INFILL[kind, shuffle]


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

# (root, allow_commas, allow_decimal, allow_negative) -> digests of (artifact,
# outputs: the encoded train and apply of the deserialized artifact on the
# test table)
PINNED_EXTRACTION = {
    ('nmcm', True, True, True): (
        '2d6e69eb6d9194800b2262cc55a45496de924d866afa16e7c933c8a3e298a779',
        '1f010b735e19bf947a70347096e162f8ad9181c11d30df4cf3af42e5bf263bc6',
    ),
    ('nmcm', True, True, False): (
        '66a133e3eaad8a483a188dd0dacbc888ef5f6d6900e54ace4b672106d5a40a7d',
        'b55f195f68cdc44a19afb85930461a4bc73a27939e1ef6fd2e919016fb5eb059',
    ),
    ('nmcm', True, False, True): (
        'f0a41ed499fd90e96c1b93f6c3cccddec6b16fe1dd1ef57fd0ceff2392f2f560',
        '2d3216fcbef1e99c051b9975e9de438a531af93527d9f31038659bc447482a82',
    ),
    ('nmcm', True, False, False): (
        '2ba880ea9618c2f1225b9c20d0df8dedf4ec64b2e11d5424cc73d0ec7b48635f',
        '4f5fa17e473b58d6ef80405037c2bcf65de9edfdd631bbe41d257e36310dca38',
    ),
    ('nmcm', False, True, True): (
        'a96b940174282b5e1d9c0d39081186695a51edc720e5bbacaab9b60688d070b9',
        '1f010b735e19bf947a70347096e162f8ad9181c11d30df4cf3af42e5bf263bc6',
    ),
    ('nmcm', False, True, False): (
        'a0ea3509b7eda5c5981d895efb88bb12ecf574f31f049f87696b3e0d0ea35f78',
        'b55f195f68cdc44a19afb85930461a4bc73a27939e1ef6fd2e919016fb5eb059',
    ),
    ('nmcm', False, False, True): (
        '10295459607119ee2b63034f92d79f0b51cd440e3b12d5ed5cf69b8a3dcf80a6',
        '2d3216fcbef1e99c051b9975e9de438a531af93527d9f31038659bc447482a82',
    ),
    ('nmcm', False, False, False): (
        '3d3bdc50355dddee8a54119a7140038bb36bc6f8f6b63b9c8c3dccbff3266507',
        '4f5fa17e473b58d6ef80405037c2bcf65de9edfdd631bbe41d257e36310dca38',
    ),
    ('nmc7', True, True, True): (
        'd7349742ef961724b5e9b00f9e1b183e68e3424e7456426c22b072eeb029a1ec',
        'b4ecbe5fa911770762df673f3c64ca8e165d834e0da8bd966c5c0d0e66677ba0',
    ),
    ('nmc7', True, True, False): (
        '49559ff574e129ba7b755d0c805f0efb5d4b43c80ed8679f7865dfd47ae568b4',
        'b188de51463e2ac5645986f90bb066945790e9a42996a79cb421c9545bee1e05',
    ),
    ('nmc7', True, False, True): (
        '017e7c43e3b20c6e2ba5a1ba778f1cef10774a21c63119a4346bc446c6c24c05',
        'bddd183f2e8ab2408f5a08c8b8a6ee75eb453c0e90eec5269bcdea21924ce6f5',
    ),
    ('nmc7', True, False, False): (
        '3ea2e885b7dba67db24dfd8a9305cd375e7f981e1c05de4441f65bbdc45288a6',
        'e9ea06ded62028264a8fe3a1c39295fc18736217d6e2596dc9bf3af1db80d3b0',
    ),
    ('nmc7', False, True, True): (
        '4dce17eb624928e59358c0b6590eabf14e54f5089941e93784e42364f7d5cb41',
        'b4ecbe5fa911770762df673f3c64ca8e165d834e0da8bd966c5c0d0e66677ba0',
    ),
    ('nmc7', False, True, False): (
        '5691bebb855c4491e6caf48058b27793ce527864d6b9a549da34a49f4bfcc45e',
        'b188de51463e2ac5645986f90bb066945790e9a42996a79cb421c9545bee1e05',
    ),
    ('nmc7', False, False, True): (
        '6f55659aed90d918343bd810ec4454dfa49e089147aa4479f0a0b079dda793c9',
        'bddd183f2e8ab2408f5a08c8b8a6ee75eb453c0e90eec5269bcdea21924ce6f5',
    ),
    ('nmc7', False, False, False): (
        '53a41d1bb43f16ba5d4798749ec4bf61087e75562f38185a3d7f28a3e20d8b02',
        'e9ea06ded62028264a8fe3a1c39295fc18736217d6e2596dc9bf3af1db80d3b0',
    ),
    ('nmc8', True, True, True): (
        '9fe81c8c4bf331965dc389b0d0677198c37be53c575bfbdc9e41db11cd6ee7c8',
        'b4ecbe5fa911770762df673f3c64ca8e165d834e0da8bd966c5c0d0e66677ba0',
    ),
    ('nmc8', True, True, False): (
        '6d920e8f25bb39b4258adac2d224fed65cc2bb2bfaf74e1a0ce3eb6636e206aa',
        'b188de51463e2ac5645986f90bb066945790e9a42996a79cb421c9545bee1e05',
    ),
    ('nmc8', True, False, True): (
        '9ebb1944a6c83ddcc99b406fe5f982a169623e8e7556f0ad9bc38604dd70d46e',
        'bddd183f2e8ab2408f5a08c8b8a6ee75eb453c0e90eec5269bcdea21924ce6f5',
    ),
    ('nmc8', True, False, False): (
        '606e0b4febbd3f3fd473d61b9e750e9198cf545058f4daf958cad366a2713da5',
        'e9ea06ded62028264a8fe3a1c39295fc18736217d6e2596dc9bf3af1db80d3b0',
    ),
    ('nmc8', False, True, True): (
        '90b26adbe9dcf43c38deb652d8ff69a6a75f88f7d857d6497d5fe14e443a23e4',
        'b4ecbe5fa911770762df673f3c64ca8e165d834e0da8bd966c5c0d0e66677ba0',
    ),
    ('nmc8', False, True, False): (
        '845793b03ee48035ad8c69ee2544d7ae5ffb5a1e3b7b1055a39164d41e361592',
        'b188de51463e2ac5645986f90bb066945790e9a42996a79cb421c9545bee1e05',
    ),
    ('nmc8', False, False, True): (
        '66ec8496b9403b55b3e82a61bf41efb89ecd916b64088ecd5ad1e9ffab42948f',
        'bddd183f2e8ab2408f5a08c8b8a6ee75eb453c0e90eec5269bcdea21924ce6f5',
    ),
    ('nmc8', False, False, False): (
        'a5a9da0e8acfbb4fbbca16757cf7de049829d1d49096b56e73fbe3efa6cdcf93',
        'e9ea06ded62028264a8fe3a1c39295fc18736217d6e2596dc9bf3af1db80d3b0',
    ),
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


def extraction_digests(root: str, flags: dict) -> tuple[str, str]:
    train, test = _extraction_tables(11, 150)
    opts = pm.Options(assignparam={"global_assignparam": flags},
                      assigninfill={"meaninfill": ["a"]})
    return _fit_apply_digests(train, test, {"a": root}, opts)


def test_every_extraction_flag_set_is_pinned():
    assert set(PINNED_EXTRACTION) == {(root, *flags.values()) for root in EXTRACTION_ROOTS
                                      for flags in EXTRACTION_FLAGS}


@pytest.mark.parametrize("key", sorted(PINNED_EXTRACTION))
def test_extraction_outputs_match_pinned_digests(key):
    root, *bits = key
    flags = dict(zip(("allow_commas", "allow_decimal", "allow_negative"), bits))
    assert extraction_digests(root, flags) == PINNED_EXTRACTION[key]
