#include "runtime/component_factory.hpp"

#include "common/log.hpp"

namespace mdsm::runtime {

std::string_view to_string(ComponentState state) noexcept {
  switch (state) {
    case ComponentState::kCreated: return "created";
    case ComponentState::kStarted: return "started";
    case ComponentState::kStopped: return "stopped";
  }
  return "?";
}

Status ComponentFactory::register_template(const std::string& template_name,
                                           Builder builder) {
  if (builder == nullptr) {
    return InvalidArgument("template '" + template_name +
                           "' has a null builder");
  }
  auto [it, inserted] = templates_.emplace(template_name, std::move(builder));
  if (!inserted) {
    return AlreadyExists("template '" + template_name +
                         "' already registered");
  }
  return Status::Ok();
}

bool ComponentFactory::has_template(std::string_view template_name) const {
  return templates_.find(template_name) != templates_.end();
}

std::vector<std::string> ComponentFactory::template_names() const {
  std::vector<std::string> names;
  names.reserve(templates_.size());
  for (const auto& [name, builder] : templates_) names.push_back(name);
  return names;
}

Result<std::unique_ptr<Component>> ComponentFactory::instantiate(
    const model::ModelObject& spec, const model::Model& middleware_model) {
  std::string template_name = spec.get_string("template", spec.class_name());
  auto it = templates_.find(template_name);
  if (it == templates_.end()) {
    return NotFound("no component template '" + template_name +
                    "' (needed by model object '" + spec.id() + "')");
  }
  MDSM_LOG_DEBUG("factory") << "instantiating '" << spec.id()
                            << "' via template '" << template_name << "'";
  Result<std::unique_ptr<Component>> component =
      it->second(spec, middleware_model);
  if (component.ok() && component.value() == nullptr) {
    return Internal("template '" + template_name +
                    "' returned a null component");
  }
  return component;
}

}  // namespace mdsm::runtime
