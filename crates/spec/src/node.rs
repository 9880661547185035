use crate::{Attributes, SpecError};

/// A workload tensor (the paper's three dataspaces).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Tensor {
    /// Input activations.
    Inputs,
    /// Weights (stationary in CiM arrays during inference).
    Weights,
    /// Output activations / partial sums.
    Outputs,
}

impl Tensor {
    /// All three tensors, in `[Inputs, Weights, Outputs]` order.
    pub const ALL: [Tensor; 3] = [Tensor::Inputs, Tensor::Weights, Tensor::Outputs];

    /// Canonical display name.
    pub fn name(self) -> &'static str {
        match self {
            Tensor::Inputs => "Inputs",
            Tensor::Weights => "Weights",
            Tensor::Outputs => "Outputs",
        }
    }

    /// Parses a tensor name (case-insensitive, singular or plural).
    pub fn parse(s: &str) -> Option<Self> {
        match s.to_ascii_lowercase().as_str() {
            "input" | "inputs" => Some(Tensor::Inputs),
            "weight" | "weights" => Some(Tensor::Weights),
            "output" | "outputs" => Some(Tensor::Outputs),
            _ => None,
        }
    }
}

impl std::fmt::Display for Tensor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Per-tensor data movement/reuse behaviour of a component (paper §III-B1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Reuse {
    /// Stores data between cycles; can always coalesce.
    Temporal,
    /// No storage across cycles, but merges repeated accesses of the same
    /// value into one backing-store access (e.g., an adder's output).
    Coalesce,
    /// No storage and no coalescing: every pass re-fetches from backing
    /// storage (e.g., a DAC or ADC convert).
    NoCoalesce,
    /// The tensor passes by without activating this component.
    #[default]
    Bypass,
}

impl Reuse {
    /// Whether this directive stores data across cycles.
    pub fn is_temporal(self) -> bool {
        self == Reuse::Temporal
    }

    /// Whether the component is activated by (bills actions for) this tensor.
    pub fn is_active(self) -> bool {
        self != Reuse::Bypass
    }

    /// Whether repeated accesses of the same value coalesce into one
    /// backing-store access.
    pub fn coalesces(self) -> bool {
        matches!(self, Reuse::Temporal | Reuse::Coalesce)
    }
}

/// The reuse directive for each of the three tensors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TensorDirectives {
    /// Directive for input activations.
    pub inputs: Reuse,
    /// Directive for weights.
    pub weights: Reuse,
    /// Directive for outputs/partial sums.
    pub outputs: Reuse,
}

impl TensorDirectives {
    /// The directive for `tensor`.
    pub fn get(&self, tensor: Tensor) -> Reuse {
        match tensor {
            Tensor::Inputs => self.inputs,
            Tensor::Weights => self.weights,
            Tensor::Outputs => self.outputs,
        }
    }

    /// Sets the directive for `tensor`.
    pub fn set(&mut self, tensor: Tensor, reuse: Reuse) {
        match tensor {
            Tensor::Inputs => self.inputs = reuse,
            Tensor::Weights => self.weights = reuse,
            Tensor::Outputs => self.outputs = reuse,
        }
    }

    /// Tensors that activate this component (non-bypass).
    pub fn active_tensors(&self) -> impl Iterator<Item = Tensor> + '_ {
        Tensor::ALL
            .into_iter()
            .filter(move |&t| self.get(t).is_active())
    }
}

/// Spatial fanout of a node: `mesh_x × mesh_y` instances.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Spatial {
    /// Instances along X (the paper's `meshX`).
    pub mesh_x: u64,
    /// Instances along Y (the paper's `meshY`).
    pub mesh_y: u64,
}

impl Spatial {
    /// A single instance (no fanout).
    pub const UNIT: Spatial = Spatial {
        mesh_x: 1,
        mesh_y: 1,
    };

    /// Creates a fanout of `mesh_x × mesh_y`.
    pub fn new(mesh_x: u64, mesh_y: u64) -> Self {
        Spatial { mesh_x, mesh_y }
    }

    /// Total number of instances.
    pub fn fanout(&self) -> u64 {
        self.mesh_x * self.mesh_y
    }
}

impl Default for Spatial {
    fn default() -> Self {
        Spatial::UNIT
    }
}

/// A component: anything that may move or reuse data (paper §III-B).
///
/// Components carry a `class` (resolved to an energy/area model by the
/// plug-in library), free-form [`Attributes`], per-tensor reuse directives,
/// and an optional spatial fanout with per-tensor spatial reuse.
///
/// # Example
///
/// ```
/// use cimloop_spec::{Component, Reuse, Tensor};
///
/// let adc = Component::new("ADC")
///     .with_class("sar_adc")
///     .with_reuse(Tensor::Outputs, Reuse::NoCoalesce)
///     .with_attr("resolution", 8i64);
/// assert_eq!(adc.reuse(Tensor::Outputs), Reuse::NoCoalesce);
/// assert_eq!(adc.reuse(Tensor::Inputs), Reuse::Bypass);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Component {
    name: String,
    class: String,
    directives: TensorDirectives,
    spatial: Spatial,
    spatial_reuse: [bool; 3],
    attributes: Attributes,
}

impl Component {
    /// Creates a component with the given name, default (bypass-everything)
    /// directives, unit fanout, and no class.
    pub fn new(name: impl Into<String>) -> Self {
        Component {
            name: name.into(),
            class: String::new(),
            directives: TensorDirectives::default(),
            spatial: Spatial::UNIT,
            spatial_reuse: [false; 3],
            attributes: Attributes::new(),
        }
    }

    /// Sets the component class (the plug-in model to use).
    pub fn with_class(mut self, class: impl Into<String>) -> Self {
        self.class = class.into();
        self
    }

    /// Sets the reuse directive for one tensor.
    pub fn with_reuse(mut self, tensor: Tensor, reuse: Reuse) -> Self {
        self.directives.set(tensor, reuse);
        self
    }

    /// Sets the same reuse directive for several tensors.
    pub fn with_reuse_all(
        mut self,
        tensors: impl IntoIterator<Item = Tensor>,
        reuse: Reuse,
    ) -> Self {
        for t in tensors {
            self.directives.set(t, reuse);
        }
        self
    }

    /// Sets the spatial fanout.
    pub fn with_spatial(mut self, spatial: Spatial) -> Self {
        self.spatial = spatial;
        self
    }

    /// Marks `tensor` as spatially reused (multicast/reduced) across this
    /// component's instances.
    pub fn with_spatial_reuse(mut self, tensor: Tensor) -> Self {
        self.spatial_reuse[tensor as usize] = true;
        self
    }

    /// Adds an attribute.
    pub fn with_attr(
        mut self,
        name: impl Into<String>,
        value: impl Into<crate::AttrValue>,
    ) -> Self {
        self.attributes.set(name, value);
        self
    }

    /// The component's unique name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The component class ("" if unset).
    pub fn class(&self) -> &str {
        &self.class
    }

    /// Reuse directive for `tensor`.
    pub fn reuse(&self, tensor: Tensor) -> Reuse {
        self.directives.get(tensor)
    }

    /// All three directives.
    pub fn directives(&self) -> &TensorDirectives {
        &self.directives
    }

    /// Spatial fanout of this component.
    pub fn spatial(&self) -> Spatial {
        self.spatial
    }

    /// Whether `tensor` is spatially reused across instances.
    pub fn spatial_reuse(&self, tensor: Tensor) -> bool {
        self.spatial_reuse[tensor as usize]
    }

    /// The component's attributes.
    pub fn attributes(&self) -> &Attributes {
        &self.attributes
    }

    /// Mutable access to the attributes.
    pub fn attributes_mut(&mut self) -> &mut Attributes {
        &mut self.attributes
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError::ZeroMesh`] if either mesh dimension is zero.
    pub fn validate(&self) -> Result<(), SpecError> {
        if self.spatial.mesh_x == 0 || self.spatial.mesh_y == 0 {
            return Err(SpecError::ZeroMesh {
                node: self.name.clone(),
            });
        }
        Ok(())
    }
}

/// A container: a grouping of the components/containers declared after it.
///
/// Containers isolate local design decisions (paper §III-B2), carry spatial
/// fanout (e.g., `column` with `meshX: 2`), and declare which tensors are
/// spatially reused between the units they replicate.
#[derive(Debug, Clone, PartialEq)]
pub struct Container {
    name: String,
    spatial: Spatial,
    spatial_reuse: [bool; 3],
    attributes: Attributes,
}

impl Container {
    /// Creates a container with unit fanout.
    pub fn new(name: impl Into<String>) -> Self {
        Container {
            name: name.into(),
            spatial: Spatial::UNIT,
            spatial_reuse: [false; 3],
            attributes: Attributes::new(),
        }
    }

    /// Sets the spatial fanout.
    pub fn with_spatial(mut self, spatial: Spatial) -> Self {
        self.spatial = spatial;
        self
    }

    /// Marks `tensor` as spatially reused (multicast/reduced) across this
    /// container's units.
    pub fn with_spatial_reuse(mut self, tensor: Tensor) -> Self {
        self.spatial_reuse[tensor as usize] = true;
        self
    }

    /// Adds an attribute.
    pub fn with_attr(
        mut self,
        name: impl Into<String>,
        value: impl Into<crate::AttrValue>,
    ) -> Self {
        self.attributes.set(name, value);
        self
    }

    /// The container's unique name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Spatial fanout.
    pub fn spatial(&self) -> Spatial {
        self.spatial
    }

    /// Whether `tensor` is spatially reused across units.
    pub fn spatial_reuse(&self, tensor: Tensor) -> bool {
        self.spatial_reuse[tensor as usize]
    }

    /// The container's attributes.
    pub fn attributes(&self) -> &Attributes {
        &self.attributes
    }

    /// Mutable access to the attributes.
    pub fn attributes_mut(&mut self) -> &mut Attributes {
        &mut self.attributes
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError::ZeroMesh`] if either mesh dimension is zero.
    pub fn validate(&self) -> Result<(), SpecError> {
        if self.spatial.mesh_x == 0 || self.spatial.mesh_y == 0 {
            return Err(SpecError::ZeroMesh {
                node: self.name.clone(),
            });
        }
        Ok(())
    }
}

/// One entry in the ordered hierarchy: a component or a container opening.
#[derive(Debug, Clone, PartialEq)]
pub enum Node {
    /// A leaf component.
    Component(Component),
    /// A container that groups all subsequent nodes.
    Container(Container),
}

impl Node {
    /// The node's name.
    pub fn name(&self) -> &str {
        match self {
            Node::Component(c) => c.name(),
            Node::Container(c) => c.name(),
        }
    }

    /// Spatial fanout of the node.
    pub fn spatial(&self) -> Spatial {
        match self {
            Node::Component(c) => c.spatial(),
            Node::Container(c) => c.spatial(),
        }
    }

    /// Whether `tensor` is spatially reused across the node's instances.
    pub fn spatial_reuse(&self, tensor: Tensor) -> bool {
        match self {
            Node::Component(c) => c.spatial_reuse(tensor),
            Node::Container(c) => c.spatial_reuse(tensor),
        }
    }

    /// The node's attributes.
    pub fn attributes(&self) -> &Attributes {
        match self {
            Node::Component(c) => c.attributes(),
            Node::Container(c) => c.attributes(),
        }
    }

    /// Returns the component if this node is one.
    pub fn as_component(&self) -> Option<&Component> {
        match self {
            Node::Component(c) => Some(c),
            Node::Container(_) => None,
        }
    }

    /// Returns the container if this node is one.
    pub fn as_container(&self) -> Option<&Container> {
        match self {
            Node::Container(c) => Some(c),
            Node::Component(_) => None,
        }
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Propagates the wrapped node's validation error.
    pub fn validate(&self) -> Result<(), SpecError> {
        match self {
            Node::Component(c) => c.validate(),
            Node::Container(c) => c.validate(),
        }
    }
}

impl From<Component> for Node {
    fn from(c: Component) -> Self {
        Node::Component(c)
    }
}

impl From<Container> for Node {
    fn from(c: Container) -> Self {
        Node::Container(c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tensor_parse_is_lenient() {
        assert_eq!(Tensor::parse("Inputs"), Some(Tensor::Inputs));
        assert_eq!(Tensor::parse("weight"), Some(Tensor::Weights));
        assert_eq!(Tensor::parse("OUTPUTS"), Some(Tensor::Outputs));
        assert_eq!(Tensor::parse("psums"), None);
    }

    #[test]
    fn reuse_predicates() {
        assert!(Reuse::Temporal.is_temporal());
        assert!(Reuse::Temporal.coalesces());
        assert!(Reuse::Coalesce.coalesces());
        assert!(!Reuse::NoCoalesce.coalesces());
        assert!(!Reuse::Bypass.is_active());
        assert!(Reuse::NoCoalesce.is_active());
    }

    #[test]
    fn directives_default_to_bypass() {
        let d = TensorDirectives::default();
        for t in Tensor::ALL {
            assert_eq!(d.get(t), Reuse::Bypass);
        }
        assert_eq!(d.active_tensors().count(), 0);
    }

    #[test]
    fn component_builder_chain() {
        let cell = Component::new("memory_cell")
            .with_class("sram_cim_cell")
            .with_reuse(Tensor::Weights, Reuse::Temporal)
            .with_spatial(Spatial::new(1, 128))
            .with_spatial_reuse(Tensor::Outputs)
            .with_attr("rows", 128i64);
        assert_eq!(cell.name(), "memory_cell");
        assert_eq!(cell.class(), "sram_cim_cell");
        assert_eq!(cell.spatial().fanout(), 128);
        assert!(cell.spatial_reuse(Tensor::Outputs));
        assert!(!cell.spatial_reuse(Tensor::Inputs));
        assert_eq!(cell.attributes().int("rows"), Some(128));
        assert!(cell.validate().is_ok());
    }

    #[test]
    fn zero_mesh_rejected() {
        let bad = Component::new("x").with_spatial(Spatial::new(0, 4));
        assert!(matches!(bad.validate(), Err(SpecError::ZeroMesh { .. })));
        let bad = Container::new("y").with_spatial(Spatial::new(4, 0));
        assert!(matches!(bad.validate(), Err(SpecError::ZeroMesh { .. })));
    }

    #[test]
    fn node_conversions() {
        let n: Node = Component::new("a").into();
        assert!(n.as_component().is_some());
        assert!(n.as_container().is_none());
        let n: Node = Container::new("b").into();
        assert_eq!(n.name(), "b");
        assert!(n.as_container().is_some());
    }

    #[test]
    fn spatial_fanout_multiplies() {
        assert_eq!(Spatial::new(3, 4).fanout(), 12);
        assert_eq!(Spatial::UNIT.fanout(), 1);
    }
}
