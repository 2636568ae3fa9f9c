"""Golden output hashes: a refactor must keep every exported byte.

JSON, GDS and SVG output is canonical and byte-deterministic, so a SHA-256
per output over a fixed corpus pins the behavior of the whole pipeline:
DAC bits 1-3 and scan n_bits 1 and 3 (with and without level shift) on both
techs, under the default flags, a color offset of 1, and each post pass
switched off in turn; plus the bytes `gridlay postprocess --pass P` writes
for each pass, on one finfet and one planar document.

The hashes were recorded once and are not to be edited: a mismatch means
the output changed.
"""

import hashlib

import pytest

from gridlay.cli import main
from gridlay.flow import FlowFlags, run_flow
from gridlay.gds import write_gds
from gridlay.layoutjson import write_layout_json
from gridlay.svg import write_svg

TECHS = ("mock_finfet", "mock_planar")

DESIGNS = {
    "dac1": ("dac", {"bits": 1}),
    "dac2": ("dac", {"bits": 2}),
    "dac3": ("dac", {"bits": 3}),
    "scan1": ("scan", {"n_bits": 1, "with_levelshift": False}),
    "scan1ls": ("scan", {"n_bits": 1, "with_levelshift": True}),
    "scan3": ("scan", {"n_bits": 3, "with_levelshift": False}),
    "scan3ls": ("scan", {"n_bits": 3, "with_levelshift": True}),
}

FLAGS = {
    "default": FlowFlags(),
    "offset1": FlowFlags(color_offset=1),
    "no-min-area": FlowFlags(min_area=False),
    "no-cuts": FlowFlags(cuts=False),
    "no-colors": FlowFlags(colors=False),
    "no-dummies": FlowFlags(dummies=False),
}

PASSES = ("min-area", "cuts", "colors", "dummies")
ALL_OFF = FlowFlags(min_area=False, cuts=False, colors=False, dummies=False)


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def flow_outputs(tech, design: str, flags: str) -> tuple[bytes, bytes, bytes]:
    gen, params = DESIGNS[design]
    d = run_flow(gen, params, tech, FLAGS[flags])
    return write_layout_json(d), write_gds(d), write_svg(d)


def postprocess_input(tech) -> bytes:
    """DAC-2 with every pass off and its second unit removed, so each pass,
    dummy fill included, has work to do."""
    d = run_flow("dac", {"bits": 2}, tech, ALL_OFF)
    del d.instances[1]
    return write_layout_json(d)


def postprocess_output(tech, pass_name: str, tmp_path) -> bytes:
    src, dst = tmp_path / "in.json", tmp_path / "out.json"
    src.write_bytes(postprocess_input(tech))
    argv = ["postprocess", "--pass", pass_name, "--in", str(src), "--out", str(dst)]
    if pass_name == "colors":
        argv += ["--offset", "1"]
    assert main(argv) == 0
    return dst.read_bytes()


@pytest.fixture(scope="module")
def techs(finfet, planar):
    return {"mock_finfet": finfet, "mock_planar": planar}


@pytest.mark.parametrize("tech_name", TECHS)
@pytest.mark.parametrize("design", DESIGNS)
@pytest.mark.parametrize("flags", FLAGS)
def test_flow_output_bytes(techs, tech_name, design, flags):
    got = tuple(sha(b) for b in flow_outputs(techs[tech_name], design, flags))
    assert got == GOLDEN_FLOW[f"{tech_name}/{design}/{flags}"]


@pytest.mark.parametrize("tech_name", TECHS)
@pytest.mark.parametrize("pass_name", PASSES)
def test_postprocess_output_bytes(techs, tech_name, pass_name, tmp_path):
    got = sha(postprocess_output(techs[tech_name], pass_name, tmp_path))
    assert got == GOLDEN_POSTPROCESS[f"{tech_name}/{pass_name}"]


# (layout JSON, GDS, SVG)
GOLDEN_FLOW = {
    "mock_finfet/dac1/default": (
        "e876fcc87be7f0f2775eb8f4bc4fa0e506c8891ed8c7fde7476de697f83b13be",
        "791bf479da651a47a5c3c972da42d6c2a90cc74458f618c0fde5540c5f507efc",
        "222d2368a5e13c80450b5c4cc2ebdb4f9bd4e6c522476c6ba08dc341b9f11f71",
    ),
    "mock_finfet/dac1/no-colors": (
        "b7627b649bbef742a30a40a795ae736060f6691352e8a5f262824f2b74c93003",
        "7c18b1afc371c1219d3e8b5c531713348415d2ce85492517cc7d5855b8e1d9ea",
        "222d2368a5e13c80450b5c4cc2ebdb4f9bd4e6c522476c6ba08dc341b9f11f71",
    ),
    "mock_finfet/dac1/no-cuts": (
        "a95fa570d58a268e00579599ea0e4f352ec3b81fe6daaa51bdb5815a7463fc8c",
        "bc5bd735ffd32dc8fced635481c853e909a4785cd2ec9be4bbb082bde0d1feb6",
        "f001ef44a4be0ff95313b9784c5fa466e0cdccfbe116378429a3bd9a1ba29ed5",
    ),
    "mock_finfet/dac1/no-dummies": (
        "e876fcc87be7f0f2775eb8f4bc4fa0e506c8891ed8c7fde7476de697f83b13be",
        "791bf479da651a47a5c3c972da42d6c2a90cc74458f618c0fde5540c5f507efc",
        "222d2368a5e13c80450b5c4cc2ebdb4f9bd4e6c522476c6ba08dc341b9f11f71",
    ),
    "mock_finfet/dac1/no-min-area": (
        "e876fcc87be7f0f2775eb8f4bc4fa0e506c8891ed8c7fde7476de697f83b13be",
        "791bf479da651a47a5c3c972da42d6c2a90cc74458f618c0fde5540c5f507efc",
        "222d2368a5e13c80450b5c4cc2ebdb4f9bd4e6c522476c6ba08dc341b9f11f71",
    ),
    "mock_finfet/dac1/offset1": (
        "22eb37ab6a619efc4025b53600405ad7a3719965b54aa021e71c542c30783227",
        "15000843d3a957cb090c329679116d055fec72d9bd86a243eb789e342eb7b570",
        "222d2368a5e13c80450b5c4cc2ebdb4f9bd4e6c522476c6ba08dc341b9f11f71",
    ),
    "mock_finfet/dac2/default": (
        "c532936a93dfca59cd5a134a61ad77e485318b8a860a1e2fd6f2dcc1504621bf",
        "2b9932aeddcbc4aaae274ae9d37bf9bb7b7e876f2e8e645fe3bee831e37a80d7",
        "d3110bbd622ed8e59e7f02fe6b9b9d628aafbaf1984f4853c781c92ae9ff66b8",
    ),
    "mock_finfet/dac2/no-colors": (
        "01dae756b1f849fbaf0c32060fe45a0e40d047a33ef0e0b480342f50457228a2",
        "308a49e670b4fce76b7d58fce2faf7a45890325692d9c046d612cba47dab68ac",
        "d3110bbd622ed8e59e7f02fe6b9b9d628aafbaf1984f4853c781c92ae9ff66b8",
    ),
    "mock_finfet/dac2/no-cuts": (
        "d4a7a2046faaa7e6514a72c0e8d24fd4e574565470a16f47f894982c450e19e2",
        "a005d64dedfb2c8cacf8a914e3bbf54cb1968a8ba136fe8ece013e0e3d4c82cc",
        "8d47a7868d141cb6a49887ef16fbfa2e2b77f374db4ccbe74e953bb18c39e824",
    ),
    "mock_finfet/dac2/no-dummies": (
        "c532936a93dfca59cd5a134a61ad77e485318b8a860a1e2fd6f2dcc1504621bf",
        "2b9932aeddcbc4aaae274ae9d37bf9bb7b7e876f2e8e645fe3bee831e37a80d7",
        "d3110bbd622ed8e59e7f02fe6b9b9d628aafbaf1984f4853c781c92ae9ff66b8",
    ),
    "mock_finfet/dac2/no-min-area": (
        "c532936a93dfca59cd5a134a61ad77e485318b8a860a1e2fd6f2dcc1504621bf",
        "2b9932aeddcbc4aaae274ae9d37bf9bb7b7e876f2e8e645fe3bee831e37a80d7",
        "d3110bbd622ed8e59e7f02fe6b9b9d628aafbaf1984f4853c781c92ae9ff66b8",
    ),
    "mock_finfet/dac2/offset1": (
        "3608af7b41aeb17f1c00bc0a7c1b4512a6cd3f05a200334ac887860c9b8e9d52",
        "5e43c54a172e56c5dc6322f601cb27637f49a5dce37cdb5bd7f6cc868d0e8ea1",
        "d3110bbd622ed8e59e7f02fe6b9b9d628aafbaf1984f4853c781c92ae9ff66b8",
    ),
    "mock_finfet/dac3/default": (
        "823c798b23d566364dfea67d54734e5ccd61e4d08b055b9491dec91320cfbc6b",
        "13b689890a817ec81f784b9a5b3609f6999708423ae8c6f2edbd374703f43255",
        "0fbaa6c211a5cbc9cae20757404f1503f887ba90e4d757068bdc733c5d5442e7",
    ),
    "mock_finfet/dac3/no-colors": (
        "c8b9ebf9d6242ec8d45087a9371537cbd153502663190000e7ccd52be3a69700",
        "d2923c3754fcf90ef7acfa359ed6bf0579d3436a8bedd434ebba80bd394c1091",
        "0fbaa6c211a5cbc9cae20757404f1503f887ba90e4d757068bdc733c5d5442e7",
    ),
    "mock_finfet/dac3/no-cuts": (
        "cd9ac50c8469c9080cd44a2faac47739e5ecc7318f23df2e79efde206d3ee9a1",
        "7cb023324a19f4034bdc3e1ec1baacfa9e3fd38d89bf84736d5499f8a5a64e16",
        "c7f582106130837efbd0663781d63474383836f30d20ebece97aace660efd581",
    ),
    "mock_finfet/dac3/no-dummies": (
        "823c798b23d566364dfea67d54734e5ccd61e4d08b055b9491dec91320cfbc6b",
        "13b689890a817ec81f784b9a5b3609f6999708423ae8c6f2edbd374703f43255",
        "0fbaa6c211a5cbc9cae20757404f1503f887ba90e4d757068bdc733c5d5442e7",
    ),
    "mock_finfet/dac3/no-min-area": (
        "823c798b23d566364dfea67d54734e5ccd61e4d08b055b9491dec91320cfbc6b",
        "13b689890a817ec81f784b9a5b3609f6999708423ae8c6f2edbd374703f43255",
        "0fbaa6c211a5cbc9cae20757404f1503f887ba90e4d757068bdc733c5d5442e7",
    ),
    "mock_finfet/dac3/offset1": (
        "3bcd3eea7fb8dab72ae596f84574a1fa680b0eff449e59e5374b5aaffe86e64d",
        "8ad5ddcf8636ccd8e20c7985db5038947415ac3c545437e25ac6ea5b90be4797",
        "0fbaa6c211a5cbc9cae20757404f1503f887ba90e4d757068bdc733c5d5442e7",
    ),
    "mock_finfet/scan1/default": (
        "7c26972c2c57bc3a7b4211a9c87604b3eadd17408835053259b4b8a40082f6ed",
        "02f1deb6246352973e54f7a64f19cd15cf99269daa14c3086584970ef67d78c0",
        "fb613a78a61ee1bf798a2c3be8f59fc589f24720b62e2a4c488e2f4e3cebc567",
    ),
    "mock_finfet/scan1/no-colors": (
        "08a148b7a7f9b6424723cba6800084eaf4db9030205bc5a9b4685397be05e297",
        "dfac033ee607e83d7e1750f17910e3431cf96843f865c38a2a4208a18c1fd1ca",
        "fb613a78a61ee1bf798a2c3be8f59fc589f24720b62e2a4c488e2f4e3cebc567",
    ),
    "mock_finfet/scan1/no-cuts": (
        "bf2bdc6074a00b62c076c010303d7b9115a09cb0c4b1d777730d23ba193af78b",
        "4442b3f61806613737fad77fb9499f3f5c039a0af2d72e348e576db644659435",
        "5985c72025138414697d4bc134a012a8a82e51b4937965401fa2a303718c0886",
    ),
    "mock_finfet/scan1/no-dummies": (
        "7c26972c2c57bc3a7b4211a9c87604b3eadd17408835053259b4b8a40082f6ed",
        "02f1deb6246352973e54f7a64f19cd15cf99269daa14c3086584970ef67d78c0",
        "fb613a78a61ee1bf798a2c3be8f59fc589f24720b62e2a4c488e2f4e3cebc567",
    ),
    "mock_finfet/scan1/no-min-area": (
        "8702a89c89abc0bda943ae880044c4048143d8f0b28ae84ee9d6a0637c06c3f0",
        "88e7ab158000de8bb1bd63880086aaa77f21e030a0512d8f845b05ed9496f34f",
        "5a467b1bd4dacaa88278e976d9ed0df777605e48ca497df7eee32e0255921ea2",
    ),
    "mock_finfet/scan1/offset1": (
        "e51140c0ffae6acc07aeded68df7b8a90e37b1f5dac2826bb411a59ca32a48b8",
        "40529c3dbcb59cf860ebf1c4e05e55ce2ead7f827fee2c20675fe33f3f7485ea",
        "fb613a78a61ee1bf798a2c3be8f59fc589f24720b62e2a4c488e2f4e3cebc567",
    ),
    "mock_finfet/scan1ls/default": (
        "3390958f463e3ea0c042c215b6b7a9ce14b31028bfacdfc22ad1c409fddbaeba",
        "d991bdb9c0437aba099de7114870aa2b54a8d82b176a1bbe89f5f7a35525a269",
        "cf76b0c4b29b57ff32595ee2e57f3436cc69c2032816eea70416e114385fbe34",
    ),
    "mock_finfet/scan1ls/no-colors": (
        "63673a2842cb7d236d01c7855f7ee8f82fdd2baee8a42df19f483bf88cc0fea6",
        "fa1fd162c61cbd14cbf814310461f414e805813d7345f9eacf4342558fc84185",
        "cf76b0c4b29b57ff32595ee2e57f3436cc69c2032816eea70416e114385fbe34",
    ),
    "mock_finfet/scan1ls/no-cuts": (
        "730bd21fbd3d0772b3975b0059744657b2efe0fe49f53d10e5b088328fb383f1",
        "572c8f2bd2601b18cde463103f14155b32c4ecb4f5046c3f77ba476ba1d19b25",
        "fdf7e07ede82e953c4cb5084ef59813a2d7c5b53d6e99c07f96a9eb14e731435",
    ),
    "mock_finfet/scan1ls/no-dummies": (
        "3390958f463e3ea0c042c215b6b7a9ce14b31028bfacdfc22ad1c409fddbaeba",
        "d991bdb9c0437aba099de7114870aa2b54a8d82b176a1bbe89f5f7a35525a269",
        "cf76b0c4b29b57ff32595ee2e57f3436cc69c2032816eea70416e114385fbe34",
    ),
    "mock_finfet/scan1ls/no-min-area": (
        "8350abf29d92c9ea5ed7a501a145a5291a6bc69d80db14f9093c837e262eca05",
        "b96073964d07995e8b9955749a2dc4064a0f57356846c53ef51b4303d73f735a",
        "4dfadb42417d0983abafbe92f05364f2ef763188228b754bbce9ed671c0a0cbd",
    ),
    "mock_finfet/scan1ls/offset1": (
        "f2268ceb7a7d7001bfeced7af6a2b7545ff140931e5c9e1f540e3fb362bb2ddf",
        "f0143b11d0fa50769081908922bc7bb545ee09ad25cbc5ad2157825eadf3097b",
        "cf76b0c4b29b57ff32595ee2e57f3436cc69c2032816eea70416e114385fbe34",
    ),
    "mock_finfet/scan3/default": (
        "ec8ab4e8509397ca70200d85a841a8fda06f31c942e32fd4a0b2d0618aae03dd",
        "2585be46a5951b883d025479b72a13ce2e3263af49a46bf3b91c8cce13abfeb3",
        "8812925de80ba440d912058d7480862dda91b39b477847cdd9380033f80f5114",
    ),
    "mock_finfet/scan3/no-colors": (
        "0a9b9f6362c966abd2ff49f4af244bcbccce7bd8daec6657413b4424d64c8032",
        "cd896b0e3bb23dcc5c8bb4de6610e9c727f838b7535e4b501962f63c0a01c6cd",
        "8812925de80ba440d912058d7480862dda91b39b477847cdd9380033f80f5114",
    ),
    "mock_finfet/scan3/no-cuts": (
        "cd3226bfd9fdc6aaeb6955bd37893f10c798a5ad9e571212788a9e7d3457496d",
        "1671da9c4c837b2ad590c2905248f4840e13ab36e7222d7d4042e33150f88f7b",
        "e54a8f93eebb9bac6c77de8005c1118ed48374b9a412c3192ae2a6ae128dc708",
    ),
    "mock_finfet/scan3/no-dummies": (
        "ec8ab4e8509397ca70200d85a841a8fda06f31c942e32fd4a0b2d0618aae03dd",
        "2585be46a5951b883d025479b72a13ce2e3263af49a46bf3b91c8cce13abfeb3",
        "8812925de80ba440d912058d7480862dda91b39b477847cdd9380033f80f5114",
    ),
    "mock_finfet/scan3/no-min-area": (
        "3e5246b0c4267a366c56d00e747eb110589205926ccaa21006287e55047f150d",
        "8f3d3c67c2f9a97a84b7d10f2cdc8224c101d4a64c735383cc54f5a6af3d5188",
        "b45101204784e65f0ff731ee45d103be67cac84bb82eda394a85f862713bd305",
    ),
    "mock_finfet/scan3/offset1": (
        "9e59b28bdd113befe4aef6fe29d8ee62ee39551c04c85d03aed9cc5e9a947332",
        "7ce1a9cd6a75c0a307b92afc0a30a1a802f8767b08329b828720c93977d9c4d1",
        "8812925de80ba440d912058d7480862dda91b39b477847cdd9380033f80f5114",
    ),
    "mock_finfet/scan3ls/default": (
        "c009d76a8e5ada0852a994b138bcc3cd8bd6cdcb380056668ef8c09a584355f5",
        "c1eecb6942094beaaf4164689efbba8e1641578b24d4243b89b73464ffccc598",
        "421e8171192f99ad21dbdf5cb7c22e41007621bf36eea645cb8310b30ee59026",
    ),
    "mock_finfet/scan3ls/no-colors": (
        "9432ae33860c8558783c0ca64182f7b9f63d3740681fccd2c289574b5fd92ec9",
        "bd2feef46ff48d9c6aabb1efa3a9f81523133894eedbc03786f245629ebca7d8",
        "421e8171192f99ad21dbdf5cb7c22e41007621bf36eea645cb8310b30ee59026",
    ),
    "mock_finfet/scan3ls/no-cuts": (
        "61607b5b2deeea2f19a97ad19c06fea577c434dd166392469f0c149376291b77",
        "cb19484995baa7d0a32e056762a0fd7b60ecb94e2d73a42fd36dcff627ca33fe",
        "42f031da060b33f5b2a01d91df0879362b2a99d99f4e34a10d03f25c59aaa7ff",
    ),
    "mock_finfet/scan3ls/no-dummies": (
        "c009d76a8e5ada0852a994b138bcc3cd8bd6cdcb380056668ef8c09a584355f5",
        "c1eecb6942094beaaf4164689efbba8e1641578b24d4243b89b73464ffccc598",
        "421e8171192f99ad21dbdf5cb7c22e41007621bf36eea645cb8310b30ee59026",
    ),
    "mock_finfet/scan3ls/no-min-area": (
        "884b1ef0e9da61b6c7e7dd6f149cd789866a4bfb2f737f6036d501b65e7b3731",
        "d6cb6c22b9dcc73064b3b605466894fff60fd337e3ad547158059817e26e6564",
        "75c9ed9cc67a5576da11291a9584c2c0f83b6dd94bf8a619c829e47c8f1f911f",
    ),
    "mock_finfet/scan3ls/offset1": (
        "f2d70d7261c63b8619a83345adb6e2dbc9f9cc93f615cf05befad660c28c93c4",
        "2f31b4b85927e7ed22474663c44c216471a58f7ed222d157da9416dac11b1af6",
        "421e8171192f99ad21dbdf5cb7c22e41007621bf36eea645cb8310b30ee59026",
    ),
    "mock_planar/dac1/default": (
        "2dbe34ed1be6319b2e9797a0599e4093975b0ec29cd10eced29bc88610eb4442",
        "70ef69a049a3a3a4ace3424eaf4fb55291745ec6c06b8053ef2ddde0fde83f60",
        "cf132ae9ca142b818c44dd1619b1fa53a2e8b50de4f6381ded366798daedebf0",
    ),
    "mock_planar/dac1/no-colors": (
        "2dbe34ed1be6319b2e9797a0599e4093975b0ec29cd10eced29bc88610eb4442",
        "70ef69a049a3a3a4ace3424eaf4fb55291745ec6c06b8053ef2ddde0fde83f60",
        "cf132ae9ca142b818c44dd1619b1fa53a2e8b50de4f6381ded366798daedebf0",
    ),
    "mock_planar/dac1/no-cuts": (
        "2dbe34ed1be6319b2e9797a0599e4093975b0ec29cd10eced29bc88610eb4442",
        "70ef69a049a3a3a4ace3424eaf4fb55291745ec6c06b8053ef2ddde0fde83f60",
        "cf132ae9ca142b818c44dd1619b1fa53a2e8b50de4f6381ded366798daedebf0",
    ),
    "mock_planar/dac1/no-dummies": (
        "2dbe34ed1be6319b2e9797a0599e4093975b0ec29cd10eced29bc88610eb4442",
        "70ef69a049a3a3a4ace3424eaf4fb55291745ec6c06b8053ef2ddde0fde83f60",
        "cf132ae9ca142b818c44dd1619b1fa53a2e8b50de4f6381ded366798daedebf0",
    ),
    "mock_planar/dac1/no-min-area": (
        "2dbe34ed1be6319b2e9797a0599e4093975b0ec29cd10eced29bc88610eb4442",
        "70ef69a049a3a3a4ace3424eaf4fb55291745ec6c06b8053ef2ddde0fde83f60",
        "cf132ae9ca142b818c44dd1619b1fa53a2e8b50de4f6381ded366798daedebf0",
    ),
    "mock_planar/dac1/offset1": (
        "2dbe34ed1be6319b2e9797a0599e4093975b0ec29cd10eced29bc88610eb4442",
        "70ef69a049a3a3a4ace3424eaf4fb55291745ec6c06b8053ef2ddde0fde83f60",
        "cf132ae9ca142b818c44dd1619b1fa53a2e8b50de4f6381ded366798daedebf0",
    ),
    "mock_planar/dac2/default": (
        "8d932adcfd86daf72586a1dfce71ccadb55ceaef664c42b005495c178ea541c0",
        "f76c6ad57d24d5f2753bbb9acde54f30f45fc5b1a6b5a520de22cf8a05ebf3ad",
        "951ca4b278fb498b7b3f3dd2bda6dbb7e54e97f0fd360aa361ed891cb345bfdc",
    ),
    "mock_planar/dac2/no-colors": (
        "8d932adcfd86daf72586a1dfce71ccadb55ceaef664c42b005495c178ea541c0",
        "f76c6ad57d24d5f2753bbb9acde54f30f45fc5b1a6b5a520de22cf8a05ebf3ad",
        "951ca4b278fb498b7b3f3dd2bda6dbb7e54e97f0fd360aa361ed891cb345bfdc",
    ),
    "mock_planar/dac2/no-cuts": (
        "8d932adcfd86daf72586a1dfce71ccadb55ceaef664c42b005495c178ea541c0",
        "f76c6ad57d24d5f2753bbb9acde54f30f45fc5b1a6b5a520de22cf8a05ebf3ad",
        "951ca4b278fb498b7b3f3dd2bda6dbb7e54e97f0fd360aa361ed891cb345bfdc",
    ),
    "mock_planar/dac2/no-dummies": (
        "8d932adcfd86daf72586a1dfce71ccadb55ceaef664c42b005495c178ea541c0",
        "f76c6ad57d24d5f2753bbb9acde54f30f45fc5b1a6b5a520de22cf8a05ebf3ad",
        "951ca4b278fb498b7b3f3dd2bda6dbb7e54e97f0fd360aa361ed891cb345bfdc",
    ),
    "mock_planar/dac2/no-min-area": (
        "8d932adcfd86daf72586a1dfce71ccadb55ceaef664c42b005495c178ea541c0",
        "f76c6ad57d24d5f2753bbb9acde54f30f45fc5b1a6b5a520de22cf8a05ebf3ad",
        "951ca4b278fb498b7b3f3dd2bda6dbb7e54e97f0fd360aa361ed891cb345bfdc",
    ),
    "mock_planar/dac2/offset1": (
        "8d932adcfd86daf72586a1dfce71ccadb55ceaef664c42b005495c178ea541c0",
        "f76c6ad57d24d5f2753bbb9acde54f30f45fc5b1a6b5a520de22cf8a05ebf3ad",
        "951ca4b278fb498b7b3f3dd2bda6dbb7e54e97f0fd360aa361ed891cb345bfdc",
    ),
    "mock_planar/dac3/default": (
        "ff37ac48a9c0900321aa5e80a401d7ed21858b1ef98b0bce3f4db844c0c931f6",
        "571977e61ae0b7514f8804e1fbdf67e7d82add828f5cc6a93442cc1eeea307a8",
        "fae4710cb9535c88094d13e2cafee22b51ab56ff9a132d98057ef8e1f10fc5c7",
    ),
    "mock_planar/dac3/no-colors": (
        "ff37ac48a9c0900321aa5e80a401d7ed21858b1ef98b0bce3f4db844c0c931f6",
        "571977e61ae0b7514f8804e1fbdf67e7d82add828f5cc6a93442cc1eeea307a8",
        "fae4710cb9535c88094d13e2cafee22b51ab56ff9a132d98057ef8e1f10fc5c7",
    ),
    "mock_planar/dac3/no-cuts": (
        "ff37ac48a9c0900321aa5e80a401d7ed21858b1ef98b0bce3f4db844c0c931f6",
        "571977e61ae0b7514f8804e1fbdf67e7d82add828f5cc6a93442cc1eeea307a8",
        "fae4710cb9535c88094d13e2cafee22b51ab56ff9a132d98057ef8e1f10fc5c7",
    ),
    "mock_planar/dac3/no-dummies": (
        "ff37ac48a9c0900321aa5e80a401d7ed21858b1ef98b0bce3f4db844c0c931f6",
        "571977e61ae0b7514f8804e1fbdf67e7d82add828f5cc6a93442cc1eeea307a8",
        "fae4710cb9535c88094d13e2cafee22b51ab56ff9a132d98057ef8e1f10fc5c7",
    ),
    "mock_planar/dac3/no-min-area": (
        "ff37ac48a9c0900321aa5e80a401d7ed21858b1ef98b0bce3f4db844c0c931f6",
        "571977e61ae0b7514f8804e1fbdf67e7d82add828f5cc6a93442cc1eeea307a8",
        "fae4710cb9535c88094d13e2cafee22b51ab56ff9a132d98057ef8e1f10fc5c7",
    ),
    "mock_planar/dac3/offset1": (
        "ff37ac48a9c0900321aa5e80a401d7ed21858b1ef98b0bce3f4db844c0c931f6",
        "571977e61ae0b7514f8804e1fbdf67e7d82add828f5cc6a93442cc1eeea307a8",
        "fae4710cb9535c88094d13e2cafee22b51ab56ff9a132d98057ef8e1f10fc5c7",
    ),
    "mock_planar/scan1/default": (
        "71285aed391ebd66ebdf2c347dc628b2e699b26121457300d46a8361e0c6bd6e",
        "4c5c951f9a6d245a2d0ad83662b53905f559e1c465cd3c116cad283da23b8e9f",
        "cd6d7d55685d8657b435848cf3df8530c0b4af78899111558c9d5a2107dabb93",
    ),
    "mock_planar/scan1/no-colors": (
        "71285aed391ebd66ebdf2c347dc628b2e699b26121457300d46a8361e0c6bd6e",
        "4c5c951f9a6d245a2d0ad83662b53905f559e1c465cd3c116cad283da23b8e9f",
        "cd6d7d55685d8657b435848cf3df8530c0b4af78899111558c9d5a2107dabb93",
    ),
    "mock_planar/scan1/no-cuts": (
        "71285aed391ebd66ebdf2c347dc628b2e699b26121457300d46a8361e0c6bd6e",
        "4c5c951f9a6d245a2d0ad83662b53905f559e1c465cd3c116cad283da23b8e9f",
        "cd6d7d55685d8657b435848cf3df8530c0b4af78899111558c9d5a2107dabb93",
    ),
    "mock_planar/scan1/no-dummies": (
        "71285aed391ebd66ebdf2c347dc628b2e699b26121457300d46a8361e0c6bd6e",
        "4c5c951f9a6d245a2d0ad83662b53905f559e1c465cd3c116cad283da23b8e9f",
        "cd6d7d55685d8657b435848cf3df8530c0b4af78899111558c9d5a2107dabb93",
    ),
    "mock_planar/scan1/no-min-area": (
        "71285aed391ebd66ebdf2c347dc628b2e699b26121457300d46a8361e0c6bd6e",
        "4c5c951f9a6d245a2d0ad83662b53905f559e1c465cd3c116cad283da23b8e9f",
        "cd6d7d55685d8657b435848cf3df8530c0b4af78899111558c9d5a2107dabb93",
    ),
    "mock_planar/scan1/offset1": (
        "71285aed391ebd66ebdf2c347dc628b2e699b26121457300d46a8361e0c6bd6e",
        "4c5c951f9a6d245a2d0ad83662b53905f559e1c465cd3c116cad283da23b8e9f",
        "cd6d7d55685d8657b435848cf3df8530c0b4af78899111558c9d5a2107dabb93",
    ),
    "mock_planar/scan1ls/default": (
        "44a7925dc950a0782c16af697493f411d6dfd032b05a75b377a5e52438939be9",
        "1b9b8ef146a188eaf593231f600e6e192cedf0519177d8a7e4f14c5659145a23",
        "7d214b9b20e8a326d85066219eff06455f1377b18fb86ac7b7151981b5cefdc4",
    ),
    "mock_planar/scan1ls/no-colors": (
        "44a7925dc950a0782c16af697493f411d6dfd032b05a75b377a5e52438939be9",
        "1b9b8ef146a188eaf593231f600e6e192cedf0519177d8a7e4f14c5659145a23",
        "7d214b9b20e8a326d85066219eff06455f1377b18fb86ac7b7151981b5cefdc4",
    ),
    "mock_planar/scan1ls/no-cuts": (
        "44a7925dc950a0782c16af697493f411d6dfd032b05a75b377a5e52438939be9",
        "1b9b8ef146a188eaf593231f600e6e192cedf0519177d8a7e4f14c5659145a23",
        "7d214b9b20e8a326d85066219eff06455f1377b18fb86ac7b7151981b5cefdc4",
    ),
    "mock_planar/scan1ls/no-dummies": (
        "44a7925dc950a0782c16af697493f411d6dfd032b05a75b377a5e52438939be9",
        "1b9b8ef146a188eaf593231f600e6e192cedf0519177d8a7e4f14c5659145a23",
        "7d214b9b20e8a326d85066219eff06455f1377b18fb86ac7b7151981b5cefdc4",
    ),
    "mock_planar/scan1ls/no-min-area": (
        "44a7925dc950a0782c16af697493f411d6dfd032b05a75b377a5e52438939be9",
        "1b9b8ef146a188eaf593231f600e6e192cedf0519177d8a7e4f14c5659145a23",
        "7d214b9b20e8a326d85066219eff06455f1377b18fb86ac7b7151981b5cefdc4",
    ),
    "mock_planar/scan1ls/offset1": (
        "44a7925dc950a0782c16af697493f411d6dfd032b05a75b377a5e52438939be9",
        "1b9b8ef146a188eaf593231f600e6e192cedf0519177d8a7e4f14c5659145a23",
        "7d214b9b20e8a326d85066219eff06455f1377b18fb86ac7b7151981b5cefdc4",
    ),
    "mock_planar/scan3/default": (
        "e020bdd202ff9b0bd5af232fec37fc987fe7b6424ad846bd73c514720f26ff0f",
        "020c5a0ec8ed82b08b64713ef79ca2152d8d7ccca0eb9f9366388f2e6912f5bb",
        "146f87f791c5a34bdd48b85634e898e6efc9716be1fd73fabed965943eb175d2",
    ),
    "mock_planar/scan3/no-colors": (
        "e020bdd202ff9b0bd5af232fec37fc987fe7b6424ad846bd73c514720f26ff0f",
        "020c5a0ec8ed82b08b64713ef79ca2152d8d7ccca0eb9f9366388f2e6912f5bb",
        "146f87f791c5a34bdd48b85634e898e6efc9716be1fd73fabed965943eb175d2",
    ),
    "mock_planar/scan3/no-cuts": (
        "e020bdd202ff9b0bd5af232fec37fc987fe7b6424ad846bd73c514720f26ff0f",
        "020c5a0ec8ed82b08b64713ef79ca2152d8d7ccca0eb9f9366388f2e6912f5bb",
        "146f87f791c5a34bdd48b85634e898e6efc9716be1fd73fabed965943eb175d2",
    ),
    "mock_planar/scan3/no-dummies": (
        "e020bdd202ff9b0bd5af232fec37fc987fe7b6424ad846bd73c514720f26ff0f",
        "020c5a0ec8ed82b08b64713ef79ca2152d8d7ccca0eb9f9366388f2e6912f5bb",
        "146f87f791c5a34bdd48b85634e898e6efc9716be1fd73fabed965943eb175d2",
    ),
    "mock_planar/scan3/no-min-area": (
        "e020bdd202ff9b0bd5af232fec37fc987fe7b6424ad846bd73c514720f26ff0f",
        "020c5a0ec8ed82b08b64713ef79ca2152d8d7ccca0eb9f9366388f2e6912f5bb",
        "146f87f791c5a34bdd48b85634e898e6efc9716be1fd73fabed965943eb175d2",
    ),
    "mock_planar/scan3/offset1": (
        "e020bdd202ff9b0bd5af232fec37fc987fe7b6424ad846bd73c514720f26ff0f",
        "020c5a0ec8ed82b08b64713ef79ca2152d8d7ccca0eb9f9366388f2e6912f5bb",
        "146f87f791c5a34bdd48b85634e898e6efc9716be1fd73fabed965943eb175d2",
    ),
    "mock_planar/scan3ls/default": (
        "ea20847148dbc2ba9195e9a1e70b8350ef188ff91be4ca0eefda78ee159ef792",
        "e60bad72eba66006d9c39c1aaef08b30667134b38a72e96905ca7782be777f14",
        "50dd2c20fb694191ea9212bef41905cac9f969a275c4f20cf91264e26980d3e8",
    ),
    "mock_planar/scan3ls/no-colors": (
        "ea20847148dbc2ba9195e9a1e70b8350ef188ff91be4ca0eefda78ee159ef792",
        "e60bad72eba66006d9c39c1aaef08b30667134b38a72e96905ca7782be777f14",
        "50dd2c20fb694191ea9212bef41905cac9f969a275c4f20cf91264e26980d3e8",
    ),
    "mock_planar/scan3ls/no-cuts": (
        "ea20847148dbc2ba9195e9a1e70b8350ef188ff91be4ca0eefda78ee159ef792",
        "e60bad72eba66006d9c39c1aaef08b30667134b38a72e96905ca7782be777f14",
        "50dd2c20fb694191ea9212bef41905cac9f969a275c4f20cf91264e26980d3e8",
    ),
    "mock_planar/scan3ls/no-dummies": (
        "ea20847148dbc2ba9195e9a1e70b8350ef188ff91be4ca0eefda78ee159ef792",
        "e60bad72eba66006d9c39c1aaef08b30667134b38a72e96905ca7782be777f14",
        "50dd2c20fb694191ea9212bef41905cac9f969a275c4f20cf91264e26980d3e8",
    ),
    "mock_planar/scan3ls/no-min-area": (
        "ea20847148dbc2ba9195e9a1e70b8350ef188ff91be4ca0eefda78ee159ef792",
        "e60bad72eba66006d9c39c1aaef08b30667134b38a72e96905ca7782be777f14",
        "50dd2c20fb694191ea9212bef41905cac9f969a275c4f20cf91264e26980d3e8",
    ),
    "mock_planar/scan3ls/offset1": (
        "ea20847148dbc2ba9195e9a1e70b8350ef188ff91be4ca0eefda78ee159ef792",
        "e60bad72eba66006d9c39c1aaef08b30667134b38a72e96905ca7782be777f14",
        "50dd2c20fb694191ea9212bef41905cac9f969a275c4f20cf91264e26980d3e8",
    ),
}

GOLDEN_POSTPROCESS = {
    "mock_finfet/colors":
        "1ae1280c5bc3965489e2dd1c4e997a38beaa61c18da17e8ef029ea9b80869490",
    "mock_finfet/cuts":
        "37993a3c9cbb0089ec1dbbbcd2a8bb6c064d58500e2d3d40b1cee174d03df8bd",
    "mock_finfet/dummies":
        "414fc783d3586585d722e0fdc04a98e6203ea33e6ef2d71e1344540754843a67",
    "mock_finfet/min-area":
        "996dfa8a8129d21c43ff6551c61b02384efce56585f464bebb4c003278611cd9",
    "mock_planar/colors":
        "0e60ac9ec34663e714daf9c5a3879a6426568d9ac78687ee450a7011e38bd328",
    "mock_planar/cuts":
        "0e60ac9ec34663e714daf9c5a3879a6426568d9ac78687ee450a7011e38bd328",
    "mock_planar/dummies":
        "6bacf940829ad562ef30a8f4ddd6b99e41664ac23985651fc9bb4aafea7f6703",
    "mock_planar/min-area":
        "0e60ac9ec34663e714daf9c5a3879a6426568d9ac78687ee450a7011e38bd328",
}
