#include "object/object.hpp"

#include <algorithm>
#include <numeric>

namespace mobi::object {

Catalog::Catalog(std::vector<Units> sizes) : sizes_(std::move(sizes)) {
  for (Units s : sizes_) {
    if (s <= 0) throw std::invalid_argument("Catalog: object sizes must be > 0");
  }
  total_ = std::accumulate(sizes_.begin(), sizes_.end(), Units{0});
  if (!sizes_.empty()) {
    min_ = *std::min_element(sizes_.begin(), sizes_.end());
  }
}

}  // namespace mobi::object
