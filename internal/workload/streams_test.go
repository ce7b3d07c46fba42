package workload

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"stochstream/internal/dist"
	"stochstream/internal/process"
	"stochstream/internal/stats"
)

// streamGoldens are the SHA-256 digests of the first 10 000 values each
// model draws at seeds 1, 2 and 3 (both streams, R then S, for a joining
// workload), recorded at commit 3ad1427. A change to how a model, a table
// or the generator draws a value moves them; a faster draw of the same
// values does not.
var streamGoldens = map[string][3]string{
	"FLOOR": {
		"479cd40a7e41c339cdb96f3d51925c159aa73acce0ef584f6f100fffa8bf9c48",
		"57eebe3c01d718831b1239e67d53e679086b1fad3f8336de9aed660e3f9936f9",
		"09ac0b4ca03a55c270ebb3e1b543fe3b678531910d25c64d76ccca7bb3979cee",
	},
	"GeneralTrend": {
		"6e90104a11a8233ed198f9ac762accbd8bfb29aa9e18492237aa588e4d7fe2b1",
		"e543022e03e9bf1aec4b55c01179a4ab3f0ad9b5cb04a2eff8f415cff1e7c784",
		"7e1fd82d04b28930ad155e9623a3d33da61f5acf094c72da8068068df990e697",
	},
	"MarkovChain": {
		"87fb5784fb57281d261d134191236718a568d4b05b1c9afaf9bf1988b63d7229",
		"cf98c5f133f1f2ad38551659edf906398339b08e9bedd308e0a0322aee55418a",
		"179603bb786f84f1abd71748f4c5abe05ba72413114f20fc0133f01f31853fa6",
	},
	"REAL": {
		"c61d113e03680c0a2c6a1e73427858940c2fd10dd2c0cf96fed44dbc46208c2a",
		"6f05c3d5fc938aeb8821ffd55a607e51c427684802676b9e2d9ebffbe25494f2",
		"81d9a040a3aa2042f83b1959bba6850fd9d3da5886cc2a45e1147719ba0d9a3c",
	},
	"ROOF": {
		"57ef5074a5b6f96797712af68e74f1d6099778c179bdc7d2288d3df164ff6894",
		"41542897e7dd573568f739f22592952709f2eb59973e380c8cb6b1da7583a7aa",
		"2b7816994e5cdc734d9ded210f931edb3874468cf9d6187b83b1efe3521230e4",
	},
	"RandomWalk": {
		"e5b4297059441190e7537dd9f9aa48de1130520983745044c2881e91ab190cdc",
		"0282bfb590a5ac491490483df59528113dd8135be44f4c965530dcdcd1da7ad6",
		"0fa926c41311e9c1461ca6ea2c88e214384eecb87a076b3b82d75432be355eab",
	},
	"Stationary/Table": {
		"d1b8f9e57d84a55b7dcef88065c750700740157c6787e40ea6b0b9a50e72f70e",
		"6824821364f7a19833fabbf6b54179234ecd1451060a510961fee7ca0ded3d59",
		"51f0193e0d6827e1d80504e94a795a52d94515c96519848ed829ecfaee4652c6",
	},
	"Stationary/Uniform": {
		"3c1970a063f265d9a278035c373593fd30bd0d004f6afbaae9a395ea94e67334",
		"4e0f89ebe0957b902b9c9786d0eb18953ecae20fb757d7b5cffb2d05c2095321",
		"ca3a7e7dfd22ba034278ed0667d57b36a433a726e5587cc20682b435b99f9e21",
	},
	"TOWER": {
		"c371f23e58f500228d9c96aa25c2593e80e52332500bae97432f89bb861a1782",
		"b40077bb8abc46a47a1e28c8621c9544086f7a176630717236134edd25823231",
		"90aca863e8361d716a4ac8c3bb6a7ba83bfb1a97f86c6f01eec8d287c879696b",
	},
	"WALK": {
		"e4b6a3cf66eb7edcb714766b64927be5c6678bd2e0dd6501a4ddcff299684da2",
		"5c39bac90bc4456a82f8d62639c8f208970c9a0c5e2836cc02062eeac321a045",
		"9afdc85d24350a4e91b38411819c2cf5d7e0424ba7e62020b29194ed49419f99",
	},
	"ledger-trend": {
		"1db9de693a7f954a264ac8b23b343d58e0aa3d8f1108a1d091afd68c300c3fc8",
		"445c66999a47da0225e4b8daac0d8e3212c910b4636cc6bae289ccdec25791fb",
		"9229b897675722c00bd980de739bdd90f77bef4bde09953872d1818c495a8cde",
	},
}

// goldenStreams returns, for one seed, the values every model a figure or
// the benchmark ledger draws from generates: the paper's workloads, the
// ledger's scaled ROOF trend, and the process models drawn directly.
func goldenStreams(seed uint64) map[string][]int {
	const n = 10000
	out := map[string][]int{}
	pair := func(name string, w JoinWorkload) {
		r, s := w.Generate(stats.NewRNG(seed), n)
		out[name] = append(r, s...)
	}
	pair("TOWER", Tower().Join())
	pair("ROOF", Roof().Join())
	pair("FLOOR", Floor().Join())
	pair("WALK", Walk())
	pair("ledger-trend", TrendSpec{Lag: 1, RBound: 40, SBound: 60, RSigma: 13.2, SSigma: 20}.Join())
	spec := Real()
	spec.Days = n
	rw, err := spec.Build(stats.NewRNG(seed))
	if err != nil {
		panic(err)
	}
	out["REAL"] = rw.Refs
	chain, err := process.NewMarkovChain(-1, [][]float64{{0.5, 0.3, 0.2}, {0.25, 0.5, 0.25}, {0.1, 0.2, 0.7}}, 0)
	if err != nil {
		panic(err)
	}
	for name, p := range map[string]process.Process{
		"RandomWalk":         &process.RandomWalk{Step: dist.BoundedNormal(2, 6), Init: 5},
		"Stationary/Table":   &process.Stationary{P: dist.BoundedNormal(13.2, 40)},
		"Stationary/Uniform": &process.Stationary{P: dist.NewUniform(-15, 15)},
		"GeneralTrend":       &process.GeneralTrend{F: func(t int) int { return t * t / 100 }, Noise: dist.BoundedNormal(5, 15)},
		"MarkovChain":        chain,
	} {
		out[name] = p.Generate(stats.NewRNG(seed), n)
	}
	return out
}

func digest(vals []int) string {
	h := sha256.New()
	var b [8]byte
	for _, v := range vals {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGeneratedStreamsArePinned: every model draws, value for value, the
// streams it drew when the digests were recorded.
func TestGeneratedStreamsArePinned(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		for name, vals := range goldenStreams(seed) {
			want, ok := streamGoldens[name]
			if !ok {
				t.Errorf("%s: no recorded digest (seed %d: %s)", name, seed, digest(vals))
				continue
			}
			if got := digest(vals); got != want[seed-1] {
				t.Errorf("%s seed %d: digest %s, recorded %s", name, seed, got, want[seed-1])
			}
		}
	}
}
