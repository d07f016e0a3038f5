// Seed-1 digests of every workload at full and smoke size. They are the
// specification the benchmark holds each run to: a change that alters
// any of them changes the fleet's output, and the benchmark fails.
// Regenerate with `tlc_bench --seed=1` and `tlc_bench --smoke --seed=1`,
// which print each workload's digests, only when an output change is
// intended.
#pragma once

#include <array>
#include <string_view>

namespace tlc::bench {

struct GoldenDigests {
  std::string_view workload;
  bool smoke;
  /// measurement, cdf, poc, anomaly, ingest (Digests::kNames order).
  std::array<std::string_view, 5> hex;
};

inline constexpr std::array<GoldenDigests, 8> kGoldenDigests{{
    {"small_cells",
     false,
     {"8fd58782b2a3d9a6597cc1d178bdf993f552e45257c59b2db8a1626ea0ad7475",
      "2aa35e2070000b701e83ef42e65d33ab7db4fabcdf1da0c01898d5d5ed2d3614",
      "bff6f462f501fd34f8070f980c159cd35962e1d2d080cab01c165b5409746632",
      "6a4cc2b0757f84124e93afa43733dd3190274e4b09bd92ba3a96b19720bb3514",
      "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"}},
    {"dense_cell",
     false,
     {"f3771e8897b2c06bc3851a1736dbab6c7afd12ef518884febe64dbf5a70252c2",
      "1fcc7b66ec1345a85ff619d8156f862658085bae92c8bcb1e8d5eee4a69fc75d",
      "8f36c9ca29c86a8bc6251c40559323ebeefbb426c7e44ffb4ea54044ad2fef48",
      "08c7d10ae5c501c87c33cd66e98d6a0508ece57111546e44940e3d7f29438606",
      "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"}},
    {"settle_rsa1024",
     false,
     {"f7d5ca6a766a3911de16e674d3da1acc76f22c0121a90e23e4ed867042492518",
      "f1cde69f7d4c42f599a50e6bc8e8d492eee9837130edfeb0e2c6f06868ef5d58",
      "a0147ff66f2a79e238be4f188426e9078db7f80d4ca9dff57a3a2f6f933ea812",
      "61d21aed1bdd3243e23f4b66182d18ea87b215691f94521285abff22d85de941",
      "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"}},
    {"hostile_lossy",
     false,
     {"0e6fab07b448256fe216ee23cefed260b80c4230d27ffde0c951454f8a4a0692",
      "94da7c4bfce23eb783e5d453c5cefdc227677e611534c4c39588fe28ca2881a2",
      "24e306ce6589769b6dac2930650a3bbc0318bbe937275275bcfb5f2bbcb19e74",
      "accf768ff39f2139bf6aa3a92f24ea8cb8050d0275b07f29569894eb2e8244e5",
      "114cf407534450f6313086744fbb56106ce14da6f4c1e45509f55bc3bacf65e1"}},
    {"small_cells",
     true,
     {"64b179c7933c5210d8dd8845eaf49e9db4109fd998a28c980fab74ebd72f60f6",
      "bd35ab52ae3b877b361fd9f9e909c65049ceaf1af252451a04f8e854a6ad7a69",
      "24ecde2b0def38d3b224608b7f4e565521b1ab2629582f18424d41ef59ec6856",
      "9eff724dbc3e2d4c6e167deec66f63e909fdf74fe4a0e8a24859c81f2a89feb2",
      "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"}},
    {"dense_cell",
     true,
     {"55c06b3b594c1fac33c68ee713588508af82d8fc579098847793c9f74e87def5",
      "d8812adf803ead95ba18ed7437f2c79f204b485327b5095cc1ced88e6f6df270",
      "faf4aad98aa47c9d9fe1c2a2d37bc4c68c21ab63c92e24a41c1cff37d9e033fc",
      "2719d933319637ce030be888fc19c0b4c17db84fc815b28aa6874e0ef007f803",
      "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"}},
    {"settle_rsa1024",
     true,
     {"4b09f04bb5d46b6bb80ff5c3319702a575dd957fa23ba4c9127c1152e27d379c",
      "d7cf2adcf986625dc89ab05a96bc48d32b0f87d3f8f4a2274a360ea346d2ca3a",
      "58bfa465348bffa3f257ffb781024945b5f94a82b612fd71f64d9465b474d447",
      "0de63d53276cb82250f1469b39323c08ee16708ed9d42777741ba35fb3bb0983",
      "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"}},
    {"hostile_lossy",
     true,
     {"412377b7f939a375c00e6ecf607b9b3a0e78b13e6d5f1a83164fab038445d9c7",
      "7524c58ae62cf075af44f5afd19c0e2cb01ec6281889fe0d35084eeee316db22",
      "c0fe9a732da4812dc879e53ff745103887ca8f8d1b308480d0988d9ca49a1c7c",
      "3f50c9454cb01ae564f0536b1c4da394729d1acca10154bda2dc0aa14863e58c",
      "cabdfda5aa09ed8d49f54626c01296555e04fdcfa698ee437444d5682309846b"}},
}};

}  // namespace tlc::bench
