//! Properties of the channel directory's name registry.

use kecho::Directory;
use proptest::prelude::*;

proptest! {
    #[test]
    fn open_is_idempotent_and_names_stable(names in proptest::collection::vec("[a-z]{1,8}", 1..10)) {
        let mut dir = Directory::default();
        let ids: Vec<_> = names.iter().map(|n| dir.open(n)).collect();
        for (name, &id) in names.iter().zip(&ids) {
            prop_assert_eq!(dir.open(name), id);
            prop_assert_eq!(dir.lookup(name), Some(id));
            prop_assert_eq!(dir.name(id), name.as_str());
        }
    }
}
