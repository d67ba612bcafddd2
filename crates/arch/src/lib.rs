//! # tmr-arch
//!
//! A generic island-style SRAM-based FPGA device model, standing in for the
//! Xilinx Spartan-II XC2S200E used by the DATE 2005 paper *"On the Optimal
//! Design of Triple Modular Redundancy Logic for SRAM-based FPGAs"*.
//!
//! The model provides everything the rest of the workspace needs to reproduce
//! the paper's bitstream fault-injection experiments:
//!
//! * a tile grid with logic **sites** (4-input LUTs, flip-flops, I/O blocks),
//! * a **routing graph** of wires and programmable interconnect points
//!   ([`Pip`]s), every PIP controlled by exactly one configuration bit,
//! * a **configuration-memory layout** ([`ConfigLayout`]) that assigns every
//!   configurable resource (LUT truth-table bits, flip-flop initialisation
//!   bits, PIPs) a frame/offset address, mirroring the frame-organised
//!   configuration memory of the real device, and
//! * a [`Bitstream`] value that can be mutated one bit at a time — the fault
//!   model of the paper (a Single Event Upset flips one configuration bit).
//!
//! The default [`Device::xc2s200e_like`] preset is calibrated so that the
//! *proportions* of configuration bits match the ones the paper reports for
//! the XC2S200E: roughly 80–85 % general routing, 6–10 % CLB customization
//! (input multiplexers), 7–9 % LUT contents and < 1 % flip-flop bits.
//!
//! ## Example
//!
//! ```
//! use tmr_arch::Device;
//!
//! let device = Device::small(4, 4);
//! assert!(device.pip_count() > 0);
//! let layout = device.config_layout();
//! // Every configuration bit maps back to exactly one resource.
//! let bit = layout.bit_count() / 2;
//! let resource = layout.resource_at(bit).expect("in range");
//! assert_eq!(layout.bit_of(&resource), Some(bit));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod bitstream;
mod config;
mod device;
mod geom;
mod mbu;
mod node;
mod rows;
mod site;
mod switchbox;

pub use bitstream::Bitstream;
pub use config::{BitAddr, BitCategory, ConfigLayout, ConfigResource};
pub use device::{Device, DeviceParams, FanoutIter};
pub use geom::TileCoord;
pub use mbu::{BitGeometry, MbuPattern};
pub use node::{Fanout, NodeId, Pip, PipCategory, PipId, RouteNode};
pub use site::{Site, SiteId, SiteKind, LUT_INPUTS};
pub use switchbox::SwitchboxFanout;
