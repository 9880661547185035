use std::collections::BTreeSet;

use crate::{Component, Container, Node, SpecError, Tensor};

/// An ordered container-hierarchy describing a full CiM system.
///
/// The hierarchy is a *series* of nodes, outermost first. Every
/// [`Container`] groups all nodes declared after it (paper §III-B2), so the
/// nesting structure is implied by order: memory hierarchy first, then the
/// macro container, then the circuits inside it, down to the memory cells.
///
/// Use [`Hierarchy::builder`] to construct programmatically, or
/// [`Hierarchy::from_yamlite`] to parse the paper's Fig 5b text format.
#[derive(Debug, Clone, PartialEq)]
pub struct Hierarchy {
    nodes: Vec<Node>,
}

impl Hierarchy {
    /// Starts building a hierarchy.
    pub fn builder() -> HierarchyBuilder {
        HierarchyBuilder { nodes: Vec::new() }
    }

    /// Parses the YAML-subset text format of the paper's Fig 5b.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError::Parse`] with a line number on malformed input,
    /// or any validation error of the resulting hierarchy.
    pub fn from_yamlite(text: &str) -> Result<Self, SpecError> {
        crate::yamlite::parse(text)
    }

    /// Creates a hierarchy from nodes in outermost-first order.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError::Empty`] if there are no components,
    /// [`SpecError::DuplicateName`] on name collisions, or a node's own
    /// validation error.
    pub fn from_nodes(nodes: Vec<Node>) -> Result<Self, SpecError> {
        if !nodes.iter().any(|n| n.as_component().is_some()) {
            return Err(SpecError::Empty);
        }
        let mut seen = BTreeSet::new();
        for node in &nodes {
            node.validate()?;
            if !seen.insert(node.name().to_owned()) {
                return Err(SpecError::DuplicateName {
                    name: node.name().to_owned(),
                });
            }
        }
        Ok(Hierarchy { nodes })
    }

    /// All nodes, outermost first.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Number of nodes (components + containers).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the hierarchy has no nodes. Always `false` for a constructed
    /// hierarchy; provided for API completeness.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Iterates over the components, outermost first.
    pub fn components(&self) -> impl Iterator<Item = &Component> {
        self.nodes.iter().filter_map(Node::as_component)
    }

    /// Iterates over the containers, outermost first.
    pub fn containers(&self) -> impl Iterator<Item = &Container> {
        self.nodes.iter().filter_map(Node::as_container)
    }

    /// Finds a component by name.
    pub fn component(&self, name: &str) -> Option<&Component> {
        self.components().find(|c| c.name() == name)
    }

    /// Finds a node (component or container) by name.
    pub fn node(&self, name: &str) -> Option<&Node> {
        self.nodes.iter().find(|n| n.name() == name)
    }

    /// Finds a node's position in the hierarchy.
    pub fn position(&self, name: &str) -> Option<usize> {
        self.nodes.iter().position(|n| n.name() == name)
    }

    /// Mutable access to a component by name (e.g., to adjust attributes
    /// during a design sweep).
    pub fn component_mut(&mut self, name: &str) -> Option<&mut Component> {
        self.nodes.iter_mut().find_map(|n| match n {
            Node::Component(c) if c.name() == name => Some(c),
            _ => None,
        })
    }

    /// The ordered levels with cumulative spatial context, outermost first.
    ///
    /// `outer_fanout` of a level is the product of spatial fanouts of all
    /// *preceding* nodes: the number of copies of this node's enclosing
    /// context. The node's own instances are `outer_fanout × spatial().fanout()`.
    pub fn levels(&self) -> Vec<Level<'_>> {
        let mut levels = Vec::with_capacity(self.nodes.len());
        let mut outer = 1u64;
        for (index, node) in self.nodes.iter().enumerate() {
            let kind = match node {
                Node::Container(_) => LevelKind::Fanout,
                Node::Component(c) => {
                    if Tensor::ALL.iter().any(|&t| c.reuse(t).is_temporal()) {
                        LevelKind::Storage
                    } else {
                        LevelKind::Transit
                    }
                }
            };
            levels.push(Level {
                index,
                node,
                kind,
                outer_fanout: outer,
            });
            outer = outer.saturating_mul(node.spatial().fanout());
        }
        levels
    }

    /// Total spatial instances of the innermost level's context.
    pub fn total_fanout(&self) -> u64 {
        self.nodes.iter().map(|n| n.spatial().fanout()).product()
    }

    /// Concatenates another hierarchy inside this one (its nodes become the
    /// innermost part of `self`), renaming nothing.
    ///
    /// This supports the paper's mix-and-match use: "a user may create one
    /// macro and test that macro in multiple systems".
    ///
    /// # Errors
    ///
    /// Returns [`SpecError::DuplicateName`] if names collide.
    pub fn nest(&self, inner: &Hierarchy) -> Result<Hierarchy, SpecError> {
        let mut nodes = self.nodes.clone();
        nodes.extend(inner.nodes.iter().cloned());
        Hierarchy::from_nodes(nodes)
    }
}

/// What role a level plays in the dataflow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LevelKind {
    /// A component that stores at least one tensor across cycles.
    Storage,
    /// A component that only passes data through (converter, adder, wire).
    Transit,
    /// A container contributing spatial fanout only.
    Fanout,
}

/// One level of the flattened hierarchy with its spatial context.
#[derive(Debug, Clone, Copy)]
pub struct Level<'a> {
    index: usize,
    node: &'a Node,
    kind: LevelKind,
    outer_fanout: u64,
}

impl<'a> Level<'a> {
    /// Position in the hierarchy (0 = outermost).
    pub fn index(&self) -> usize {
        self.index
    }

    /// The underlying node.
    pub fn node(&self) -> &'a Node {
        self.node
    }

    /// The level's role.
    pub fn kind(&self) -> LevelKind {
        self.kind
    }

    /// Number of copies of this node's enclosing context (product of
    /// fanouts of all preceding nodes).
    pub fn outer_fanout(&self) -> u64 {
        self.outer_fanout
    }

    /// Total instances of this node (`outer_fanout × own fanout`).
    pub fn instances(&self) -> u64 {
        self.outer_fanout * self.node.spatial().fanout()
    }

    /// The node's name.
    pub fn name(&self) -> &'a str {
        self.node.name()
    }
}

/// Incremental builder for a [`Hierarchy`].
///
/// # Example
///
/// ```
/// use cimloop_spec::{Component, Container, Hierarchy, Reuse, Spatial, Tensor};
///
/// # fn main() -> Result<(), cimloop_spec::SpecError> {
/// let h = Hierarchy::builder()
///     .component(
///         Component::new("buffer")
///             .with_reuse(Tensor::Inputs, Reuse::Temporal)
///             .with_reuse(Tensor::Outputs, Reuse::Temporal),
///     )
///     .container(Container::new("macro"))
///     .component(
///         Component::new("memory_cell")
///             .with_reuse(Tensor::Weights, Reuse::Temporal)
///             .with_spatial(Spatial::new(1, 2))
///             .with_spatial_reuse(Tensor::Outputs),
///     )
///     .build()?;
/// assert_eq!(h.len(), 3);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Default)]
pub struct HierarchyBuilder {
    nodes: Vec<Node>,
}

impl HierarchyBuilder {
    /// Appends a component (becomes the innermost node so far).
    pub fn component(mut self, component: Component) -> Self {
        self.nodes.push(Node::Component(component));
        self
    }

    /// Appends a container; everything appended afterwards is inside it.
    pub fn container(mut self, container: Container) -> Self {
        self.nodes.push(Node::Container(container));
        self
    }

    /// Appends an already-wrapped node.
    pub fn node(mut self, node: Node) -> Self {
        self.nodes.push(node);
        self
    }

    /// Finishes the hierarchy.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Hierarchy::from_nodes`].
    pub fn build(self) -> Result<Hierarchy, SpecError> {
        Hierarchy::from_nodes(self.nodes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Reuse, Spatial};

    fn sample() -> Hierarchy {
        Hierarchy::builder()
            .component(
                Component::new("buffer")
                    .with_reuse(Tensor::Inputs, Reuse::Temporal)
                    .with_reuse(Tensor::Outputs, Reuse::Temporal),
            )
            .container(Container::new("macro"))
            .component(Component::new("DAC_bank").with_reuse(Tensor::Inputs, Reuse::NoCoalesce))
            .container(
                Container::new("column")
                    .with_spatial(Spatial::new(2, 1))
                    .with_spatial_reuse(Tensor::Inputs),
            )
            .component(Component::new("ADC").with_reuse(Tensor::Outputs, Reuse::NoCoalesce))
            .component(
                Component::new("memory_cell")
                    .with_reuse(Tensor::Weights, Reuse::Temporal)
                    .with_spatial(Spatial::new(1, 2))
                    .with_spatial_reuse(Tensor::Outputs),
            )
            .build()
            .unwrap()
    }

    #[test]
    fn builder_preserves_order() {
        let h = sample();
        let names: Vec<&str> = h.nodes().iter().map(Node::name).collect();
        assert_eq!(
            names,
            vec![
                "buffer",
                "macro",
                "DAC_bank",
                "column",
                "ADC",
                "memory_cell"
            ]
        );
    }

    #[test]
    fn component_lookup() {
        let h = sample();
        assert!(h.component("ADC").is_some());
        assert!(h.component("macro").is_none()); // container, not component
        assert!(h.node("macro").is_some());
        assert_eq!(h.position("column"), Some(3));
    }

    #[test]
    fn duplicate_names_rejected() {
        let result = Hierarchy::builder()
            .component(Component::new("x"))
            .component(Component::new("x"))
            .build();
        assert!(matches!(result, Err(SpecError::DuplicateName { .. })));
    }

    #[test]
    fn empty_hierarchy_rejected() {
        assert!(matches!(
            Hierarchy::builder().build(),
            Err(SpecError::Empty)
        ));
        // Containers alone are not enough.
        let result = Hierarchy::builder()
            .container(Container::new("macro"))
            .build();
        assert!(matches!(result, Err(SpecError::Empty)));
    }

    #[test]
    fn levels_track_cumulative_fanout() {
        let h = sample();
        let levels = h.levels();
        assert_eq!(levels.len(), 6);
        // Buffer and macro are outside any fanout.
        assert_eq!(levels[0].outer_fanout(), 1);
        assert_eq!(levels[2].outer_fanout(), 1);
        // ADC is inside the 2-wide column container.
        let adc = &levels[4];
        assert_eq!(adc.name(), "ADC");
        assert_eq!(adc.outer_fanout(), 2);
        assert_eq!(adc.instances(), 2);
        // Each column holds 2 memory cells: 4 instances total.
        let cell = &levels[5];
        assert_eq!(cell.instances(), 4);
    }

    #[test]
    fn level_kinds() {
        let h = sample();
        let kinds: Vec<LevelKind> = h.levels().iter().map(Level::kind).collect();
        assert_eq!(
            kinds,
            vec![
                LevelKind::Storage, // buffer
                LevelKind::Fanout,  // macro
                LevelKind::Transit, // DAC bank
                LevelKind::Fanout,  // column
                LevelKind::Transit, // ADC
                LevelKind::Storage, // memory cell
            ]
        );
    }

    #[test]
    fn nest_composes_hierarchies() {
        let system = Hierarchy::builder()
            .component(Component::new("DRAM").with_reuse_all(Tensor::ALL, Reuse::Temporal))
            .build()
            .unwrap();
        let h = system.nest(&sample()).unwrap();
        assert_eq!(h.len(), 7);
        assert_eq!(h.nodes()[0].name(), "DRAM");
        // Name collisions are rejected.
        assert!(system.nest(&system).is_err());
    }

    #[test]
    fn component_mut_allows_sweeps() {
        let mut h = sample();
        h.component_mut("ADC")
            .unwrap()
            .attributes_mut()
            .set("resolution", 8i64);
        assert_eq!(
            h.component("ADC").unwrap().attributes().int("resolution"),
            Some(8)
        );
    }

    #[test]
    fn total_fanout_is_product() {
        assert_eq!(sample().total_fanout(), 4);
    }
}
