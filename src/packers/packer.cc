#include "packers/packer.h"

#include "packers/progressive.h"
#include "util/check.h"

namespace tetri::packers {

namespace {

/** The group-knapsack DP; its arena is reused across calls. */
class DpPacker final : public RoundPacker {
 public:
  std::string_view name() const override { return "dp"; }

  void Pack(const PackGroup* groups, int num_groups, int capacity,
            PackResult* result) override {
    PackRoundInto(groups, num_groups, capacity, &scratch_, result);
  }

 private:
  PackScratch scratch_;
};

}  // namespace

std::string_view
PackerKindName(PackerKind kind)
{
  switch (kind) {
    case PackerKind::kDp: return "dp";
    case PackerKind::kProgressive: return "progressive";
  }
  return "unknown";
}

std::optional<PackerKind>
PackerKindFromName(std::string_view name)
{
  if (name == "dp") return PackerKind::kDp;
  if (name == "progressive") return PackerKind::kProgressive;
  return std::nullopt;
}

std::vector<std::string_view>
RegisteredPackerNames()
{
  return {"dp", "progressive"};
}

std::unique_ptr<RoundPacker>
MakePacker(PackerKind kind, PackerOptions options)
{
  switch (kind) {
    case PackerKind::kDp:
      return std::make_unique<DpPacker>();
    case PackerKind::kProgressive: {
      ProgressiveOptions popt;
      popt.min_utilization = options.min_utilization;
      return std::make_unique<ProgressiveFillingPacker>(popt);
    }
  }
  TETRI_CHECK_MSG(false, "unknown packer kind");
  return nullptr;
}

std::unique_ptr<RoundPacker>
MakePacker(std::string_view name, PackerOptions options)
{
  const std::optional<PackerKind> kind = PackerKindFromName(name);
  if (!kind.has_value()) return nullptr;
  return MakePacker(*kind, options);
}

}  // namespace tetri::packers
