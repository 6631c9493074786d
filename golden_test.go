package repro

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/plan"
	"repro/internal/pointset"
	"repro/internal/service"
)

// artifactGolden is the sha256 of EncodeBinary() for every engine solve
// TestArtifactGolden runs, keyed by family/selection/k/φ.
var artifactGolden = map[string]string{
	"clusters/bats/k=1/phi=3.1416":           "56b5a404a4dae8209e317a490096806180f7d7dd480681755a66291c144fd131",
	"clusters/bats/k=1/phi=4.0841":           "03096c4db25eb0d86ee11e1a4d3d56b60995d5371428f278a61b246cf5033936",
	"clusters/bats/k=1/phi=5.0265":           "3b3b5068912d0e22c2d1a4afaf8fff604dd10f0e384f8ef0e6fa7dac55d915b6",
	"clusters/bats/k=2/phi=3.1416":           "9d12ca0a138d45fc57d5acd887ae7b111f4e6de4fee3505317e9064665ef251b",
	"clusters/bats/k=2/phi=3.7699":           "17b58a44c3f9720ec2943770cb99fa7721fbe69c3611deaa98bb0e3468115d20",
	"clusters/cover/k=1/phi=5.0265":          "49c42d7b9b9e71515345c762028cc6861340276fb5f5bbb972963ea8f48b74b6",
	"clusters/cover/k=2/phi=3.7699":          "f66ecce4fb6c4e38a83819e214490467258840ca7d699c24e619c8480a442097",
	"clusters/cover/k=3/phi=2.5133":          "47926b70a30e05d246e470e8715ad9d1fa141ac7c7251e19e547e3d542257de1",
	"clusters/cover/k=4/phi=1.2566":          "b84382bbb55a3cbfafa0f558163e4ed608c03c6bfd832134e40691248839b899",
	"clusters/cover/k=5/phi=0.0000":          "f3d7810b40beed4a2b5baf99263003f2ecdd1b11aac9f505bb9893787fe4eac7",
	"clusters/k1/k=1/phi=3.1416":             "447490b05e07ee31109b438f7240828283015ccf9ffd47e679e94930e7038cb2",
	"clusters/k1/k=1/phi=4.0841":             "9aaa7c460df6b87544063649df28c736f535826c6b90436ce01d94e61eb4ff6b",
	"clusters/k1/k=1/phi=5.0265":             "ae789a524968984e6366f2c1b323e9b549a5ccc263914b8f5307fad2e111804c",
	"clusters/k1/k=2/phi=3.1416":             "bcb3fa52fe3d05043ac2525663812b87af95cd77536d592b893a3d2f398f3e73",
	"clusters/k1/k=2/phi=3.7699":             "d85653b7beab6a8de4ce8f986df9e695b529346a02cb816b45c0a7c9ac2b0c21",
	"clusters/race:strong/k=2/phi=0.0000":    "da6e3b40a8d339d130f17375400ab67a09335dcbfdd6a4bcec089234daafa618",
	"clusters/race:symmetric/k=1/phi=5.0265": "890161ea96130c84cd2cf15ff858911eb368ca3568563ed7701de013f3eb8433",
	"clusters/table1/k=1/phi=0.0000":         "d5be24b52cf765bb633e8c032f3493274733afd5a474738b07822cd9566a63b8",
	"clusters/table1/k=1/phi=3.1416":         "6999fdff6fb9f2feae689f6c6a97b0171047fa4eebf0a4da307506827f7ab9f1",
	"clusters/table1/k=1/phi=4.0841":         "63fd5f31f3ee4e56832e457fbd9897925d5d96c381908f69643abd4686cb7248",
	"clusters/table1/k=1/phi=5.0265":         "22a67098d0ef948d791b6962eb2c4f1827f15cfdb2792a7cc9b027b9dda68ebe",
	"clusters/table1/k=2/phi=0.0000":         "32b63364c6af55424ceafe534f9063a873f7fed947a9859d048e4ae5859d18a9",
	"clusters/table1/k=2/phi=2.0944":         "d29c6260bf78156a0cb22a54edc6ac8e0b8684a4df010e6aff2ce0abec683872",
	"clusters/table1/k=2/phi=3.1416":         "33bc92e40581b56f0c3740ab79941abbb2f280d6c0c9d962a0eebe9f8448d8a9",
	"clusters/table1/k=2/phi=3.7699":         "2340e6e9381f4b82f1113fa0e36e740a87b8a203f22fa8912252927518587856",
	"clusters/table1/k=3/phi=0.0000":         "7e0cd402242a4ebabd5a2beb7d1ec08be719556af6ea64c4d55b7116d78b0bcd",
	"clusters/table1/k=3/phi=2.5133":         "4958dfe65918914e25918f9e2e77173e2aa1e6daa36a02cc34d0006466010f76",
	"clusters/table1/k=4/phi=0.0000":         "0b3a2812d12355e55dcbd568403142ea954ff22cbee159f2efa9682b880b7c37",
	"clusters/table1/k=4/phi=1.2566":         "4a8a2898a97171c38ebcb138304f3926ba97418eec1a3de8a59a533d7835b8ca",
	"clusters/table1/k=5/phi=0.0000":         "92d022ab40bdee1546be99882c3b8ddf2a7ddb40f8d36ec9a2709e62c00719e9",
	"clusters/tour/k=1/phi=0.0000":           "408a4447530daed0917e3a51b99132b7d4c97ee8fb4c70cd15651f5f1e9f1827",
	"clusters/tour/k=1/phi=3.1416":           "764d0c47d530abd5bfb73af53b494094b217d041efd28a7e2b484a9580d40668",
	"clusters/tour/k=1/phi=4.0841":           "ac29c12282f0c7791f8282792ce0fcc262737d3e44f282439ebdd30e979bbfbc",
	"clusters/tour/k=1/phi=5.0265":           "ba9333be56618d3ea7794daa85d4fca76298e16e35fd8530e1c229f9cc51d09d",
	"clusters/tour/k=2/phi=0.0000":           "dcab872e9f0531d5014c83b678190301e1105db14a8a5f541d1f0143027b8fb0",
	"clusters/tour/k=2/phi=2.0944":           "f1c09a0157f51052f8d3e1fbc887d448ae79cd60c0758a040f41a41806883f8e",
	"clusters/tour/k=2/phi=3.1416":           "1bf71737c1bc6ed3d8d70ca6389d9cc5bc75c5a2f8fdc49030e0704c3d15bc84",
	"clusters/tour/k=2/phi=3.7699":           "4699377b1686c62726499f5f85d8e5bcfee61084e61f39c6a2a63e3141409254",
	"clusters/tour/k=3/phi=0.0000":           "4447ec7e8f6cf6f755b55fedf926a6bfe8670f30e8f0f4344b2cfc36253658cf",
	"clusters/tour/k=3/phi=2.5133":           "a1618e562c4cd3a149a18ea74f78e3ec9627e04d33e847ec026f0588d7572fea",
	"clusters/tour/k=4/phi=0.0000":           "ccc8528e7051939ea04f9d13ad9c755cf7a878e1ba35e5165eedea0e21b92035",
	"clusters/tour/k=4/phi=1.2566":           "38ec4e95813431a0463589aeb9e5a7e21dfdeb79320f79e2a8e3b78ac6f57bd0",
	"clusters/tour/k=5/phi=0.0000":           "329447af819a6c4e66c9dd7b2e1bc49024dca1118fd9c7647781542fb0ff3f7b",
	"clusters/tworay/k=2/phi=0.0000":         "b1b4bac2c524c32caec4fcc28adfc8e1098c95f313af38ce1220c03b19ac0e6f",
	"clusters/tworay/k=2/phi=2.0944":         "e0880f7ed057d8ef32b008f91ecfd7025513818abc8deb2b95a64a1c86202f0d",
	"clusters/tworay/k=2/phi=3.1416":         "b115ee002d76917a39dd71b2259634a23a669caf3bc68c95438c2abfaf2352eb",
	"clusters/tworay/k=2/phi=3.7699":         "9e17872b16ea1f40af986b1633dbec7a45f9898336970f959058ea0ceada0322",
	"clusters/tworay/k=3/phi=0.0000":         "0f5813b5e5fc17f95a42051e53e19da7d95a1faed03cd2363fb56e80e1139914",
	"clusters/tworay/k=3/phi=2.5133":         "12b33a051d0386d5fdc545dbd97a0042bc9a85f3b7d2c54fed84a2f6491db63b",
	"clusters/tworay/k=4/phi=0.0000":         "a2251ef8a73bc5d561a7341a287530ba0797b4814c4af94667c133c132f2241e",
	"clusters/tworay/k=4/phi=1.2566":         "76d602732c79b57db7eb3866b6f77ebda7db0fb3bd033476ed7b8a1b65269fb5",
	"clusters/tworay/k=5/phi=0.0000":         "85d9acdf94f992dd429b1c6300f084609c50003f7255ad403a978a27777648c8",
	"uniform/bats/k=1/phi=3.1416":            "dcf947144c203913645cff16f72060adb43d78eb48633f8b7f5ef6158561743e",
	"uniform/bats/k=1/phi=4.0841":            "c234e9534b497b0605fdd1c0311d73294bb9a288bab43a3489b28f47f9e5a4ff",
	"uniform/bats/k=1/phi=5.0265":            "70b9002f24291da97255395590335161260f5f4e7697977225850b7eb43f07cd",
	"uniform/bats/k=2/phi=3.1416":            "de092d11d6fa62814e75539b87bf2d5c1b13eabff7357225f4398c1db0758898",
	"uniform/bats/k=2/phi=3.7699":            "120c32a743fc13b645dd242d691094a6d8193d194a67eede975fe3548ad5c08c",
	"uniform/cover/k=1/phi=5.0265":           "e5ac0a2eef0609b1d000f0a53163ad978a55b49869453cbf016f31a622dfa522",
	"uniform/cover/k=2/phi=3.7699":           "bfad6411934d0a4eed4f1f465c3145d51c8a371d4bfa27c06d27b963bbdb68a7",
	"uniform/cover/k=3/phi=2.5133":           "28dcb0a6385e335a1b387549a035171385e6861acac3fe16eb58272e072d8667",
	"uniform/cover/k=4/phi=1.2566":           "37c9ec24e69f21dae0b3c4f6b76e51e6dd4a666b70eabf683598e0cc05184adc",
	"uniform/cover/k=5/phi=0.0000":           "51908b11158992b6077dcf9eee7af50470c845bf6f5cd1bc9b05ca69a97f237d",
	"uniform/k1/k=1/phi=3.1416":              "d470827900be94202ebc9feedf7ad35a609961a695cad2818b08cb8c2c7d28c1",
	"uniform/k1/k=1/phi=4.0841":              "7ab5c877e9a6103c29835d1b292d92ac0e7628f875281b3865ed0acada5a5805",
	"uniform/k1/k=1/phi=5.0265":              "36566ccbdd84533379476e34e09502040bbcbc194b6e68014351e31d7fc8d711",
	"uniform/k1/k=2/phi=3.1416":              "db5e4af3802af1043c409b870731d7ec14269b10c82a232645ffbb7fd1b0fe67",
	"uniform/k1/k=2/phi=3.7699":              "5ccb3e3554ab6add6c7d6bc6205e6b0c284b80d1500bb5d6eec6e874fe20ecdf",
	"uniform/race:strong/k=2/phi=0.0000":     "554936d73c4078c6d9c45e4fc9e3182dc3e9be6e333b09122d9ace085be1624a",
	"uniform/race:symmetric/k=1/phi=5.0265":  "e4ac9a4dbedd193825f7dba82464b0d6908b089f1a4c3bdae9c8ee34207fe9db",
	"uniform/table1/k=1/phi=0.0000":          "9d98326a766d055d8e4d94211cde53b40cc0704e27d476077c512f8092506ed5",
	"uniform/table1/k=1/phi=3.1416":          "67336852f28051d18f292c359cb432b2d5283a8c320980745dfa7a86dea070ee",
	"uniform/table1/k=1/phi=4.0841":          "1577f1f1c2f1f4a91efe4b3588946a970241d370abc16546342d6ff53e84cda5",
	"uniform/table1/k=1/phi=5.0265":          "f874870fd36737411072392c7dde0f47cff42f78d76b698b461e4ef050edf440",
	"uniform/table1/k=2/phi=0.0000":          "7c2f1654314e0101110de378248a62c4056007bee242d091749883b783c2a260",
	"uniform/table1/k=2/phi=2.0944":          "e04d22b57fd164b9f26b08cbe1c684718d79107b702804b7e2d69e199cd65034",
	"uniform/table1/k=2/phi=3.1416":          "f8aea562a98c0e748d7a4012b1180766d558cb0fabf0a188bbe2652fb20f31a5",
	"uniform/table1/k=2/phi=3.7699":          "3ae93f9ad3a5328c4c7da0b6a01bc9f510d7b32e35c78514b6cebdf6d2cb254f",
	"uniform/table1/k=3/phi=0.0000":          "99ccc412b5c7700a20f514a2068f2f84b431007a211e79404d9221b13947e18a",
	"uniform/table1/k=3/phi=2.5133":          "b4e2386c1772746f9aef9b115b84eba3c9afa4c2d823d549cccd2995522facb8",
	"uniform/table1/k=4/phi=0.0000":          "88123826267e724ba96f35803dc47acfb39d8e42e953595fe0db34aa82c1fad1",
	"uniform/table1/k=4/phi=1.2566":          "f0300e3eb34454533e86297aca9fdca3618a6a3ba0e13dbd766090cadb10b4bc",
	"uniform/table1/k=5/phi=0.0000":          "bf2e01d6109c5f79f50429abc24d50abbcbb8f5b971bdd2a1df5888c7299b7d9",
	"uniform/tour/k=1/phi=0.0000":            "92451545515b9c3d0832dce488edd9f4207be114aa01febacc62825d098f0ae1",
	"uniform/tour/k=1/phi=3.1416":            "58a2c23a594f02c09585b02f5440f32c3ffd159fa694770e057af13730ed1fc1",
	"uniform/tour/k=1/phi=4.0841":            "07e5c84125b54ca27f6764ae1532849bc0ed5d15d1c5fc724a319c1a91eb039f",
	"uniform/tour/k=1/phi=5.0265":            "5e7a4d975056ed030b715bf58b6e00acb743814a093ad2e7540207bce9aed5cb",
	"uniform/tour/k=2/phi=0.0000":            "807d38c0f5eb27c5964825b65b7f6fc712235cf2cdfcf739047fada0bdd7bf12",
	"uniform/tour/k=2/phi=2.0944":            "11a848736b9e3bb7766a6de4c41efbb2d614d9a952fde7fd5e717f8a329448bd",
	"uniform/tour/k=2/phi=3.1416":            "8807fc9db4b04e8dbae91237c30df8af2e9b2c386e118a8a96c3ef42ed94471b",
	"uniform/tour/k=2/phi=3.7699":            "113e19e82e353e246a3b872e68181d426c4f4e968a4ac9e1255abae26dd33623",
	"uniform/tour/k=3/phi=0.0000":            "9d334108bc5af14bd2219f02c0d31239821d4f3422d51096f62addad63c4a7b7",
	"uniform/tour/k=3/phi=2.5133":            "4a9ce9c5c34e2505fd44d73dad01f76db15dbc20f95701cda1d27b1de9c1a129",
	"uniform/tour/k=4/phi=0.0000":            "71008a164bbe57f9436995deccf3d2e693901734df10ed80bcc7d844d34339a6",
	"uniform/tour/k=4/phi=1.2566":            "9484d00edbf4298ae0c5f34f2959729c597015fd55ecac41e0132f5d1569663d",
	"uniform/tour/k=5/phi=0.0000":            "cd3a4a90f7726e1d0fe776289fcb644eb96029a784b827474ef916c08cad1fcc",
	"uniform/tworay/k=2/phi=0.0000":          "a8c56bb814301bf86eabfccfdf0eab1cb5978d3ffb9f675cd72e76a37d85ef61",
	"uniform/tworay/k=2/phi=2.0944":          "2de7938c2aad1d27d360d08e3d44b49e5c2c01712ffb0f8465a9dd7a25e981d6",
	"uniform/tworay/k=2/phi=3.1416":          "6dfc1b1b7978726f878a5c4bb4c06b236c74fae4a6c3471ec20218d43f59cbb0",
	"uniform/tworay/k=2/phi=3.7699":          "c25009923e9bac269616905a6338f61d6284aa5008ff2c130ad92abeebcc3b4e",
	"uniform/tworay/k=3/phi=0.0000":          "38637dd6e3062f12ae8bb228826c10fa28016855c1c788218b2c1711ffd514e3",
	"uniform/tworay/k=3/phi=2.5133":          "8080b77e0bde8e6846997e3873d8c6488228f755e8a3fed91c9435d311c3e4ad",
	"uniform/tworay/k=4/phi=0.0000":          "89d89d713535250468ffa2e929d8e5a68d4c00ba0c441ebe303bcdf99731576c",
	"uniform/tworay/k=4/phi=1.2566":          "87d9fbad5410d9e603ded17eb3a6e12706f30684fe47221c62e36ba88ec77b29",
	"uniform/tworay/k=5/phi=0.0000":          "a99d00a7fac151372f88c82bd163d9391c200284f829ef4b959f85a014ee9a8b",
}

// TestArtifactGolden pins the artifact bytes of engine solves across the
// whole orienter portfolio: every registered orienter at every
// core.PortfolioBudgets() budget it supports, plus two raced objectives
// with a deadline generous enough that every candidate finishes (so the
// race is decided by measured radius and rank alone), on two point-set
// families at n=300. Any change to a construction's output, the
// verifier's report or the binary encoding moves a digest here.
func TestArtifactGolden(t *testing.T) {
	const n = 300
	type solve struct {
		name string
		req  service.Request
	}
	races := []struct {
		k   int
		phi float64
		obj plan.Objective
	}{
		{2, 0, plan.Objective{Conn: core.ConnStrong, Deadline: time.Minute}},
		{1, core.Phi1Full, plan.Objective{Conn: core.ConnSymmetric, Deadline: time.Minute}},
	}
	eng := service.NewEngine(service.Options{})
	got := make(map[string]string)
	for _, fam := range []string{"uniform", "clusters"} {
		pts := pointset.Workload(fam, rand.New(rand.NewSource(2020)), n)
		var solves []solve
		for _, o := range core.Orienters() {
			name := o.Info().Name
			for _, b := range core.PortfolioBudgets() {
				if o.Supports(b.K, b.Phi) {
					solves = append(solves, solve{fmt.Sprintf("%s/%s/k=%d/phi=%.4f", fam, name, b.K, b.Phi),
						service.Request{Pts: pts, K: b.K, Phi: b.Phi, Algo: name}})
				}
			}
		}
		for _, r := range races {
			solves = append(solves, solve{fmt.Sprintf("%s/race:%s/k=%d/phi=%.4f", fam, r.obj.Conn, r.k, r.phi),
				service.Request{Pts: pts, K: r.k, Phi: r.phi, Objective: r.obj}})
		}
		for _, s := range solves {
			sol, _, err := eng.Solve(context.Background(), s.req)
			if err != nil {
				t.Fatalf("%s: %v", s.name, err)
			}
			sum := sha256.Sum256(sol.EncodeBinary())
			got[s.name] = hex.EncodeToString(sum[:])
		}
	}
	names := make([]string, 0, len(got))
	for name := range got {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if want, ok := artifactGolden[name]; !ok || want != got[name] {
			t.Errorf("%q: %q, // want %q", name, got[name], want)
		}
	}
	for name := range artifactGolden {
		if _, ok := got[name]; !ok {
			t.Errorf("%q: pinned but not solved", name)
		}
	}
}
