#include "fabric/fabric.h"

#include <stdexcept>

namespace aalo::fabric {

Fabric::Fabric(const FabricConfig& config) : num_ports_(config.num_ports) {
  if (config.num_ports <= 0) {
    throw std::invalid_argument("Fabric: num_ports must be positive");
  }
  if (config.port_capacity <= 0) {
    throw std::invalid_argument("Fabric: port_capacity must be positive");
  }
  capacity_.assign(2 * static_cast<std::size_t>(num_ports_), config.port_capacity);

  if (config.rack.ports_per_rack > 0) {
    if (num_ports_ % config.rack.ports_per_rack != 0) {
      throw std::invalid_argument("Fabric: num_ports must be a multiple of ports_per_rack");
    }
    if (config.rack.oversubscription <= 0) {
      throw std::invalid_argument("Fabric: oversubscription must be positive");
    }
    ports_per_rack_ = config.rack.ports_per_rack;
    num_racks_ = num_ports_ / ports_per_rack_;
    const util::Rate rack_cap = static_cast<double>(ports_per_rack_) *
                                config.port_capacity / config.rack.oversubscription;
    capacity_.resize(2 * static_cast<std::size_t>(num_ports_ + num_racks_), rack_cap);
  }
}

coflow::PortId Fabric::checked(coflow::PortId p) const {
  if (p < 0 || p >= num_ports_) throw std::out_of_range("Fabric: port id out of range");
  return p;
}

int Fabric::checkedRack(int rack) const {
  if (rack < 0 || rack >= num_racks_) {
    throw std::out_of_range("Fabric: rack id out of range");
  }
  return rack;
}

}  // namespace aalo::fabric
